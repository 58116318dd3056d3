//! `sttcp-lab` — run any ST-TCP experiment from the command line.
//!
//! ```text
//! Usage: sttcp-lab [OPTIONS]
//!
//!   --workload W     echo | interactive | bulk:<MB> | upload:<MB>   [echo]
//!   --requests N     exchanges for echo/interactive                 [100]
//!   --deployment D   standard | sttcp                               [sttcp]
//!   --hb MS          heartbeat / SyncTime interval in ms            [50]
//!   --topology T     hub | shared:<mbit> | mirror | multicast | gateway [hub]
//!   --crash-at S     crash the primary at S seconds
//!   --tap-loss PCT   drop PCT% of TCP frames into the backup
//!   --think MS       interactive server compute time per request    [0]
//!   --logger         insert the in-network packet logger
//!   --power-switch   attach the fencing power switch
//!   --close          client closes after the final response
//!   --seed N         simulator seed                                 [0xE4A1]
//!   --pcap FILE      write every frame to FILE (open in Wireshark)
//! ```
//!
//! Example — the paper's Table 2 Echo cell at 200 ms heartbeats:
//!
//! ```text
//! sttcp-lab --workload echo --hb 200 --crash-at 0.45
//! ```

use st_tcp::apps::Workload;
use st_tcp::netsim::pcap::SharedPcap;
use st_tcp::netsim::{DropRule, SimDuration, SimTime, Switch};
use st_tcp::sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec, Topology};
use st_tcp::sttcp::{ServerNode, SttcpConfig};
use st_tcp::wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet};
use std::process::exit;

fn usage() -> ! {
    eprintln!("{}", USAGE);
    exit(2)
}

const USAGE: &str = "Usage: sttcp-lab [--workload echo|interactive|bulk:<MB>|upload:<MB>]
                 [--requests N] [--deployment standard|sttcp] [--hb MS]
                 [--topology hub|shared:<mbit>|mirror|multicast|gateway]
                 [--crash-at SECS] [--tap-loss PCT] [--think MS]
                 [--logger] [--power-switch] [--close] [--seed N] [--pcap FILE]";

struct Args {
    workload: Workload,
    standard: bool,
    hb_ms: u64,
    topology: Topology,
    crash_at: Option<f64>,
    tap_loss: f64,
    think_ms: u64,
    logger: bool,
    power_switch: bool,
    close: bool,
    seed: u64,
    pcap: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Echo { requests: 100 },
        standard: false,
        hb_ms: 50,
        topology: Topology::Hub,
        crash_at: None,
        tap_loss: 0.0,
        think_ms: 0,
        logger: false,
        power_switch: false,
        close: false,
        seed: 0xE4A1,
        pcap: None,
    };
    let mut requests = 100usize;
    let mut workload_kind = "echo".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => workload_kind = val("--workload"),
            "--requests" => requests = val("--requests").parse().unwrap_or_else(|_| usage()),
            "--deployment" => match val("--deployment").as_str() {
                "standard" => args.standard = true,
                "sttcp" => args.standard = false,
                _ => usage(),
            },
            "--hb" => args.hb_ms = val("--hb").parse().unwrap_or_else(|_| usage()),
            "--topology" => {
                let t = val("--topology");
                args.topology = match t.as_str() {
                    "hub" => Topology::Hub,
                    "mirror" => Topology::SwitchMirror,
                    "multicast" => Topology::SwitchMulticast,
                    "gateway" => Topology::GatewaySwitch,
                    other => match other.strip_prefix("shared:") {
                        Some(mbit) => Topology::SharedMediumHub {
                            medium_bps: mbit.parse::<u64>().unwrap_or_else(|_| usage()) * 1_000_000,
                        },
                        None => usage(),
                    },
                };
            }
            "--crash-at" => {
                args.crash_at = Some(val("--crash-at").parse().unwrap_or_else(|_| usage()))
            }
            "--tap-loss" => {
                args.tap_loss = val("--tap-loss").parse::<f64>().unwrap_or_else(|_| usage()) / 100.0
            }
            "--think" => args.think_ms = val("--think").parse().unwrap_or_else(|_| usage()),
            "--logger" => args.logger = true,
            "--power-switch" => args.power_switch = true,
            "--close" => args.close = true,
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--pcap" => args.pcap = Some(val("--pcap")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args.workload = match workload_kind.as_str() {
        "echo" => Workload::Echo { requests },
        "interactive" => Workload::Interactive { requests, reply_size: 10 * 1024 },
        other => {
            let parse_mb = |s: &str| s.parse::<u64>().unwrap_or_else(|_| usage());
            if let Some(mb) = other.strip_prefix("bulk:") {
                Workload::bulk_mb(parse_mb(mb))
            } else if let Some(mb) = other.strip_prefix("upload:") {
                Workload::upload_mb(parse_mb(mb))
            } else {
                usage()
            }
        }
    };
    args
}

fn main() {
    let args = parse_args();
    let mut spec = ScenarioSpec::new(args.workload).topology(args.topology);
    spec.seed = args.seed;
    spec.close_when_done = args.close;
    spec.interactive_think = SimDuration::from_millis(args.think_ms);
    if args.standard && (args.logger || args.power_switch) {
        // Both devices are driven by the ST-TCP backup; a standard
        // deployment has nobody to query the logger or pull the plug.
        usage()
    }
    if !args.standard {
        let mut cfg =
            SttcpConfig::new(addrs::VIP, 80).with_hb_interval(SimDuration::from_millis(args.hb_ms));
        if args.logger {
            cfg = cfg.with_logger();
        }
        if args.power_switch {
            cfg = cfg.with_fencing(0);
        }
        spec = spec.st_tcp(cfg);
    }
    if let Some(t) = args.crash_at {
        spec =
            spec.faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_secs_f64(t)));
    }

    let mut scenario = build(&spec);
    if args.tap_loss > 0.0 {
        match scenario.backup {
            Some(backup) => {
                scenario.sim.add_ingress_drop(
                    backup,
                    DropRule::rate(args.tap_loss, |frame: &bytes::Bytes| {
                        (|| {
                            let eth = EthernetFrame::parse(frame.clone()).ok()?;
                            if eth.ethertype != EtherType::Ipv4 {
                                return None;
                            }
                            let ip = Ipv4Packet::parse(eth.payload).ok()?;
                            Some(ip.protocol == IpProtocol::Tcp)
                        })()
                        .unwrap_or(false)
                    }),
                );
            }
            None => {
                eprintln!("--tap-loss requires an ST-TCP deployment");
                exit(2);
            }
        }
    }
    let pcap = args.pcap.as_ref().map(|_| {
        let rec = SharedPcap::new();
        let probe = rec.clone();
        scenario.sim.set_probe(move |ev| probe.record(ev.time, ev.frame));
        rec
    });

    let metrics = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();

    println!("workload complete");
    println!("  total time        : {:.6} s", metrics.total_time().unwrap().as_secs_f64());
    println!("  responses         : {}", metrics.latencies.len());
    println!("  bytes received    : {}", metrics.bytes_received);
    println!("  stream verified   : {}", metrics.verified_clean());
    if let Some(max) = metrics.max_latency() {
        println!("  max req latency   : {:.3} ms", max.as_secs_f64() * 1e3);
    }
    if let Some(backup) = scenario.backup {
        let node = scenario.sim.node_ref::<ServerNode>(backup);
        let eng = node.backup_engine().expect("backup role");
        println!("backup engine");
        println!("  acks sent         : {}", eng.stats.acks_sent);
        println!("  heartbeats seen   : {}", eng.stats.hbs_received);
        println!("  missing requests  : {}", eng.stats.missing_reqs);
        println!("  bytes recovered   : {}", eng.stats.missing_bytes_recovered);
        println!(
            "  logger queries    : {}",
            eng.stats.logger_queries + eng.stats.bootstrap_queries
        );
        match eng.takeover_at() {
            Some(t) => println!("  TOOK OVER at      : {:.3} s", t.as_secs_f64()),
            None => println!("  took over         : no"),
        }
    }
    let trace = scenario.sim.trace();
    println!("simulator");
    println!("  events processed  : {}", trace.events_processed);
    println!("  frames delivered  : {}", trace.frames_delivered);
    println!("  filtered by NICs  : {}", trace.frames_filtered_nic);
    if !matches!(args.topology, Topology::Hub | Topology::SharedMediumHub { .. }) {
        let floods = scenario.sim.node_ref::<Switch>(scenario.fabric).floods;
        println!("  switch floods     : {floods}");
    }
    if let (Some(rec), Some(path)) = (pcap, args.pcap) {
        match rec.save(&path) {
            Ok(()) => println!("  pcap written      : {path} ({} frames)", rec.len()),
            Err(e) => eprintln!("  pcap write failed : {e}"),
        }
    }
    if !metrics.verified_clean() {
        exit(1);
    }
}
