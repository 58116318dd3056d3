//! The spread of `DetHashMap`'s hasher over the keys a 10 000-client
//! fleet really hashes: the clients' four-tuples and the servers'
//! (`NetStack`'s demux), the engines' `ConnKey`s, the switch's MAC
//! table, the server's per-socket map.
//!
//! `hashbrown` takes a key's bucket from the low bits of its hash and a
//! 7-bit tag, compared before the key itself, from the top seven. A
//! hasher whose low bits ignore part of a key piles those keys into a
//! few buckets; one whose top bits do makes every probe compare keys.
//! Over each population both must look like uniform draws.

use netsim::DetHashMap;
use std::hash::{BuildHasher, Hash};
use sttcp::fleet::FleetSpec;
use sttcp::scenario::addrs;
use sttcp::ConnKey;
use tcpstack::{Quad, SockId};
use wire::MacAddr;

const CLIENTS: usize = 10_000;

/// Asserts that the hashes of `keys` fill the buckets of a 16 384-slot
/// table (their low 14 bits) and the 128 tags (their top 7 bits) the
/// way uniform draws would.
fn assert_spread<K: Hash>(population: &str, keys: impl Iterator<Item = K>) {
    let map: DetHashMap<K, ()> = DetHashMap::default();
    let hashes: Vec<u64> = keys.map(|key| map.hasher().hash_one(&key)).collect();
    assert_eq!(hashes.len(), CLIENTS);
    let mut buckets = vec![0u32; 1 << 14];
    let mut tags = [0u32; 128];
    for h in &hashes {
        buckets[(h & 0x3fff) as usize] += 1;
        tags[(h >> 57) as usize] += 1;
    }
    // 10 000 uniform draws into 16 384 buckets occupy 16 384 ·
    // (1 − e^(−10 000/16 384)) ≈ 7 486 of them (σ ≈ 33), and a bucket
    // holding eight is a one-in-a-thousand event.
    let occupied = buckets.iter().filter(|&&n| n > 0).count();
    let fullest = buckets.iter().max().copied().unwrap_or(0);
    assert!(occupied > 7_300, "{population}: {occupied} of 16 384 buckets occupied");
    assert!(fullest <= 8, "{population}: {fullest} keys share one bucket");
    // 78.1 keys per tag: χ² over 127 degrees of freedom has mean 127
    // and σ ≈ 16.
    let expected = CLIENTS as f64 / 128.0;
    let chi2: f64 = tags.iter().map(|&n| (f64::from(n) - expected).powi(2) / expected).sum();
    println!("{population}: {occupied} buckets occupied, fullest {fullest}, tag χ² {chi2:.1}");
    assert!(chi2 < 200.0, "{population}: tag χ² = {chi2:.1}");
}

#[test]
fn the_fleets_keys_spread_over_buckets_and_tags() {
    let spec = FleetSpec::new(CLIENTS);
    // Every fleet client opens one connection, from the first ephemeral port.
    let plans: Vec<_> = (0..CLIENTS).map(|i| spec.client_plan(i)).collect();
    let client_port = 40_000;
    assert_spread(
        "client quads",
        plans.iter().map(|p| Quad::new(p.ip, client_port, addrs::VIP, p.port)),
    );
    assert_spread(
        "server quads",
        plans.iter().map(|p| Quad::new(addrs::VIP, p.port, p.ip, client_port)),
    );
    assert_spread(
        "conn keys",
        plans.iter().map(|p| ConnKey {
            client_ip: p.ip,
            client_port,
            server_ip: addrs::VIP,
            server_port: p.port,
        }),
    );
    assert_spread("client MACs", (0..CLIENTS as u32).map(|i| MacAddr::local(100 + i)));
    // A slab handle is its index under generation 1 the first time the
    // slot is used.
    assert_spread("socket handles", (0..CLIENTS as u64).map(|i| SockId::from_raw(1 << 32 | i)));
}
