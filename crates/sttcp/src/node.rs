//! Simulation-node adapters: hosts that plug the sans-io stacks,
//! engines, and applications into the `netsim` event loop.
//!
//! * [`ServerNode`] — a service host: a standard-TCP solo server (the
//!   paper's baseline) or a member of an ST-TCP replication chain (the
//!   paper's primary/backup pair is the chain of length one).
//! * [`ClientNode`] — an *unmodified* TCP client driving a workload;
//!   deliberately built from the plain [`NetStack`] with no ST-TCP
//!   code, because client transparency is the paper's core claim.
//! * [`GatewayNode`] — the two-interface IP gateway of the tapping
//!   architecture.
//!
//! Port conventions: port 0 is the LAN NIC; port 1 (servers only) is
//! the management segment holding the power switch.

use crate::cluster::{ClusterEngine, ClusterRole, Topology};
use crate::config::SttcpConfig;
use crate::messages::{ConnKey, SideMsg};
use apps::{Application, StackApi};
use bytes::Bytes;
use netsim::node::{Context, Node, PortId};
use netsim::power::power_off_frame;
use netsim::{DetHashMap, SimDuration, SimTime};
use obs::{Counter, SharedRecorder, TraceEvent};
use std::any::Any;
use std::net::Ipv4Addr;
use tcpstack::{Gateway, NetStack, SeqNum, Side, SockId, StackConfig, UdpId};
use wire::{IpProtocol, Ipv4Packet, TcpFlags, TcpSegment};

/// LAN-facing port of every host node.
pub const LAN: PortId = PortId(0);
/// Management port (servers): power switch segment.
pub const MGMT: PortId = PortId(1);

const TOK_STACK: u64 = 1;
const TOK_TICK: u64 = 2;
const TOK_CONNECT: u64 = 3;
/// Application wake tokens: `TOK_APP_BASE + SockId::raw()`. Raw socket
/// handles carry a non-zero generation in their high 32 bits, so they
/// never collide with the low control tokens. These are one-shot timers,
/// and one may outlive the reason it was armed; applications guard.
const TOK_APP_BASE: u64 = 1000;

/// Creates fresh application instances, one per accepted connection.
pub type AppFactory = Box<dyn FnMut() -> Box<dyn Application> + Send>;

/// One application on one socket, as both host adapters run it.
struct ConnState {
    app: Box<dyn Application>,
    connected: bool,
    peer_closed: bool,
}

impl ConnState {
    fn new(app: Box<dyn Application>) -> Self {
        ConnState { app, connected: false, peer_closed: false }
    }

    /// Makes one application callback over `sock`, then arms the wake
    /// the application asked for as timer `token`.
    fn call(
        &mut self,
        stack: &mut NetStack,
        sock: SockId,
        token: u64,
        ctx: &mut Context,
        callback: impl FnOnce(&mut dyn Application, &mut StackApi),
    ) {
        let mut api = StackApi::new(stack, sock, ctx.now());
        callback(self.app.as_mut(), &mut api);
        if let Some(after) = api.take_wake() {
            ctx.set_timer_after(after, token);
        }
    }

    /// The application's turn on its socket: connected (once, when the
    /// handshake completes), the unread bytes in place, writable while
    /// the send buffer has room, peer closed (once).
    fn pump(&mut self, stack: &mut NetStack, sock: SockId, token: u64, ctx: &mut Context) {
        let Some(state) = stack.state(sock) else {
            return;
        };
        if !self.connected && state.is_synchronized() {
            self.connected = true;
            self.call(stack, sock, token, ctx, |app, api| app.on_connected(api));
        }
        let _ = stack.read_in_place(sock, |stack, data| {
            self.call(stack, sock, token, ctx, |app, api| app.on_data(data, api));
        });
        if stack.tcb(sock).is_some_and(|t| t.writable() > 0) {
            self.call(stack, sock, token, ctx, |app, api| app.on_writable(api));
        }
        if !self.peer_closed && stack.tcb(sock).is_some_and(|t| t.peer_closed()) {
            self.peer_closed = true;
            self.call(stack, sock, token, ctx, |app, api| app.on_peer_closed(api));
        }
    }
}

/// Programs the node's NIC with the addresses its stack filters by
/// ([`StackConfig::nic_macs`]); a promiscuous stack programs nothing.
fn program_nic(cfg: &StackConfig, ctx: &mut Context) {
    if let Some((own, also)) = cfg.nic_macs() {
        ctx.set_nic_filter(own, also.iter().copied());
    }
}

/// The node's wake ([`Context::set_wake`]) kept on its stack's next
/// deadline: moved whenever that changes, so it comes due only when a
/// connection deadline (or an ARP retry) does.
#[derive(Debug, Default)]
struct StackTimer {
    /// Where the wake is set; `None` when it is clear or spent.
    armed: Option<SimTime>,
    /// Reused frame staging buffer for [`NetStack::poll_into`].
    tx: Vec<Bytes>,
}

impl StackTimer {
    /// Puts the wake on `deadline`, unless it is there already: a move
    /// re-orders the wake among same-instant events.
    fn rearm(&mut self, ctx: &mut Context, deadline: Option<SimTime>) {
        if deadline != self.armed {
            ctx.set_wake(deadline, TOK_STACK);
            self.armed = deadline;
        }
    }

    /// The last step of every pump: transmits the stack's output on the
    /// LAN port and re-arms the stack wake. Returns whether the stack
    /// had work of its own: a connection deadline due or a frame to send.
    fn flush(&mut self, stack: &mut NetStack, ctx: &mut Context) -> bool {
        let due = stack.poll_into(ctx.now(), &mut self.tx);
        let busy = due > 0 || !self.tx.is_empty();
        for frame in self.tx.drain(..) {
            ctx.send_frame(LAN, frame);
        }
        self.rearm(ctx, stack.next_deadline());
        busy
    }

    /// Counts the wake a `TOK_STACK` fire was; `busy` is what the pump
    /// it led to reports (a connection deadline due, or a frame sent).
    fn count_wake(recorder: &SharedRecorder, busy: bool) {
        recorder.count(Counter::StackWakes, 1);
        if !busy {
            recorder.count(Counter::StackWakesIdle, 1);
        }
    }
}

/// A service host (solo, or a replication-chain member). See the
/// module docs.
pub struct ServerNode {
    stack: NetStack,
    stack_cfg: StackConfig,
    /// The replication engine; `None` for a standard-TCP solo server.
    engine: Option<ClusterEngine>,
    /// What the engine boots from: the protocol configuration and the
    /// *initial* topology. An amnesia reboot rejoins at epoch 0 and
    /// adopts the current reign from the first heartbeat it hears.
    replication: Option<(SttcpConfig, Topology)>,
    side_udp: Option<UdpId>,
    /// Listening services: `(port, app factory)`. Every constructor
    /// installs one; [`ServerNode::add_service`] appends more (a fleet
    /// server offering several workload classes on distinct ports).
    services: Vec<(u16, AppFactory)>,
    conns: DetHashMap<SockId, ConnState>,
    timer: StackTimer,
    booted: bool,
    /// Observability recorder, re-applied to the fresh stack/engine on
    /// every (re)boot.
    recorder: SharedRecorder,
    /// Reused buffer for the stack's per-pump activity drain.
    active: Vec<SockId>,
    /// Reused buffer for draining the engine's targeted outbox.
    side_out: Vec<(Ipv4Addr, SideMsg)>,
    /// Times this node has booted (1 after a normal start).
    pub boot_count: u32,
    /// Accepted connections in order (diagnostics / tests).
    pub accepted: Vec<SockId>,
}

impl ServerNode {
    fn new(
        stack_cfg: StackConfig,
        listen_port: u16,
        factory: AppFactory,
        replication: Option<(SttcpConfig, Topology)>,
    ) -> Self {
        let mut node = ServerNode {
            stack: NetStack::new(stack_cfg.clone()),
            stack_cfg,
            engine: None,
            replication,
            side_udp: None,
            services: vec![(listen_port, factory)],
            conns: DetHashMap::default(),
            timer: StackTimer::default(),
            booted: false,
            recorder: obs::nop(),
            active: Vec::new(),
            side_out: Vec::new(),
            boot_count: 0,
            accepted: Vec::new(),
        };
        node.engine = node.boot_engine(SimTime::ZERO);
        node
    }

    /// A fresh engine for this node's rank in its initial topology.
    fn boot_engine(&self, now: SimTime) -> Option<ClusterEngine> {
        let (cfg, topology) = self.replication.as_ref()?;
        let x = cfg.effective_ack_threshold(self.stack_cfg.tcp.recv_buf);
        Some(ClusterEngine::new(cfg.clone(), self.stack_cfg.ip, topology.clone(), x, now))
    }

    /// A standard-TCP server: the paper's baseline.
    pub fn solo(stack_cfg: StackConfig, listen_port: u16, factory: AppFactory) -> Self {
        ServerNode::new(stack_cfg, listen_port, factory, None)
    }

    /// The paper's ST-TCP primary: rank 0 of the one-backup chain.
    /// `backup_addr` is the backup's own (non-VIP) address.
    pub fn primary(
        stack_cfg: StackConfig,
        cfg: SttcpConfig,
        backup_addr: Ipv4Addr,
        factory: AppFactory,
    ) -> Self {
        let topology = Topology::new(vec![stack_cfg.ip, backup_addr]);
        ServerNode::cluster(stack_cfg, cfg, topology, factory)
    }

    /// The paper's ST-TCP backup: rank 1 of the one-backup chain.
    /// `primary_addr` is the primary's own (non-VIP) address.
    pub fn backup(
        stack_cfg: StackConfig,
        cfg: SttcpConfig,
        primary_addr: Ipv4Addr,
        factory: AppFactory,
    ) -> Self {
        let topology = Topology::new(vec![primary_addr, stack_cfg.ip]);
        ServerNode::cluster(stack_cfg, cfg, topology, factory)
    }

    /// A replication-chain member (primary + N backups); the role
    /// follows from this node's rank in `topology` (its own IP must be
    /// a member). Side-channel datagrams are targeted per the topology.
    pub fn cluster(
        stack_cfg: StackConfig,
        cfg: SttcpConfig,
        topology: Topology,
        factory: AppFactory,
    ) -> Self {
        ServerNode::new(stack_cfg, cfg.service_port, factory, Some((cfg, topology)))
    }

    /// The node's network stack (inspection).
    pub fn stack(&self) -> &NetStack {
        &self.stack
    }

    /// Registers an additional listening service (port + per-connection
    /// app factory). Call before the simulation starts; services
    /// survive a crash/reboot cycle like the constructor's service
    /// does. The engine is port-agnostic ([`ConnKey`] carries the
    /// server port), so every service is shadowed and migrated the
    /// same way.
    pub fn add_service(&mut self, port: u16, factory: AppFactory) {
        self.services.push((port, factory));
    }

    /// Installs an observability recorder on the stack and engine. The
    /// node keeps the handle and re-applies it after a reboot (the
    /// rebuilt stack and engine would otherwise silently revert to the
    /// no-op recorder).
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
        self.apply_recorder();
    }

    fn apply_recorder(&mut self) {
        self.stack.set_recorder(self.recorder.clone());
        if let Some(engine) = &mut self.engine {
            engine.set_recorder(self.recorder.clone());
        }
    }

    /// The replication engine (`None` on a solo server).
    pub fn engine(&self) -> Option<&ClusterEngine> {
        self.engine.as_ref()
    }

    /// Mutable engine access (scheduling a planned migration).
    pub fn engine_mut(&mut self) -> Option<&mut ClusterEngine> {
        self.engine.as_mut()
    }

    /// The engine of a node that *booted* as a backup (rank ≥ 1 of its
    /// initial topology), whatever it has been promoted to since.
    pub fn backup_engine(&self) -> Option<&ClusterEngine> {
        let (_, topology) = self.replication.as_ref()?;
        self.engine.as_ref().filter(|_| topology.primary() != self.stack_cfg.ip)
    }

    /// Concrete application instance attached to `sock`.
    pub fn app<T: Application>(&self, sock: SockId) -> Option<&T> {
        let app: &dyn Any = self.conns.get(&sock)?.app.as_ref();
        app.downcast_ref::<T>()
    }

    /// Backup inspection of a tapped packet the stack parsed but did
    /// not deliver: primary→client segments carry the primary's
    /// cumulative ACK. A segment failing its TCP checksum is ignored.
    /// A serving member does no tap work at all.
    fn inspect_tapped(&mut self, now: SimTime, ip: Ipv4Packet) {
        let Some(engine) = self.engine.as_mut().filter(|e| e.role() == ClusterRole::Backup) else {
            return;
        };
        if ip.src != engine.config().vip || ip.protocol != IpProtocol::Tcp {
            return;
        }
        let Ok(seg) = TcpSegment::parse(ip.payload, ip.src, ip.dst) else {
            return;
        };
        if !seg.flags.contains(TcpFlags::ACK) {
            return;
        }
        let key = ConnKey {
            client_ip: ip.dst,
            client_port: seg.dst_port,
            server_ip: ip.src,
            server_port: seg.src_port,
        };
        let (seq, ack, syn) = (SeqNum(seg.seq), SeqNum(seg.ack), seg.flags.contains(TcpFlags::SYN));
        engine.on_tapped_primary_segment(now, key, seq, ack, syn, &mut self.stack);
    }

    /// One pass over everything the node does. Returns whether the stack
    /// had work of its own: a connection deadline due or a frame to send.
    fn pump(&mut self, ctx: &mut Context) -> bool {
        let now = ctx.now();
        // 1. Adopt newly established (or shadowed) connections.
        for si in 0..self.services.len() {
            while let Some(sock) = self.stack.accept(self.services[si].0) {
                self.conns.insert(sock, ConnState::new((self.services[si].1)()));
                self.accepted.push(sock);
                if let Some(engine) = &mut self.engine {
                    engine.on_accept(sock, &mut self.stack);
                }
            }
        }
        // 2. Drain the side channel.
        if let (Some(side), Some(engine)) = (self.side_udp, &mut self.engine) {
            while let Some(dgram) = self.stack.udp_recv(side) {
                let Some(msg) = SideMsg::decode(dgram.payload) else {
                    continue;
                };
                let (kind, conn, seq, len) = msg.trace_parts();
                self.recorder
                    .trace(now.as_nanos(), &TraceEvent::SideRecv { msg: kind, conn, seq, len });
                engine.on_side_msg(now, dgram.src_ip, msg, &mut self.stack);
            }
        }
        // 3. Pump applications — only over sockets the stack reports as
        // touched since the last pump (ingress, timers, engine injection).
        // Idle connections cost nothing here, which is what keeps a pump
        // O(active) with thousands of open connections.
        let mut active = std::mem::take(&mut self.active);
        active.clear();
        self.stack.drain_activity(&mut active);
        // Feed receive progress to the ack strategy of a shadowing member
        // (the engine dedups; acks themselves go out in step 4).
        if let Some(engine) = self.engine.as_mut().filter(|e| e.is_shadowing()) {
            for &sock in &active {
                if let Some(tcb) = self.stack.tcb(sock) {
                    engine.note_activity(ConnKey::from_server_quad(tcb.quad()));
                }
            }
        }
        for &sock in &active {
            // Side-channel and unadopted sockets have no application.
            if let Some(conn) = self.conns.get_mut(&sock) {
                conn.pump(&mut self.stack, sock, TOK_APP_BASE + sock.raw(), ctx);
            }
        }
        // 3b. Reap connections that have fully closed: drop the app and
        // release the TCB slot (long-running servers must not grow
        // without bound). Closure is always driven by a segment or timer
        // that marks the socket active, so checking the active set is
        // enough — no full-map sweep. `accepted` keeps the historical
        // handle; the reused `active` buffer keeps this allocation-free.
        for &sock in &active {
            if matches!(self.stack.state(sock), None | Some(tcpstack::TcpState::Closed))
                && self.conns.remove(&sock).is_some()
            {
                if let (Some(engine), Some(tcb)) = (&mut self.engine, self.stack.tcb(sock)) {
                    engine.on_close(ConnKey::from_server_quad(tcb.quad()));
                }
                self.stack.release(sock);
            }
        }
        active.clear();
        self.active = active;
        // 4. Event-driven backup acks (the X-threshold rule), then
        // 5. flush engine messages / fencing / logger queries.
        self.flush_engine(now, ctx);
        // 6. Transmit stack output and rearm the stack timer.
        self.timer.flush(&mut self.stack, ctx)
    }

    fn flush_engine(&mut self, now: SimTime, ctx: &mut Context) {
        let (Some(side), Some(engine)) = (self.side_udp, &mut self.engine) else {
            return;
        };
        engine.maybe_send_acks(&mut self.stack, false);
        let port = engine.config().side_channel_port;
        debug_assert!(self.side_out.is_empty());
        engine.drain_outbox_into(&mut self.side_out);
        for (dst, msg) in self.side_out.drain(..) {
            let (kind, conn, seq, len) = msg.trace_parts();
            self.recorder
                .trace(now.as_nanos(), &TraceEvent::SideSend { msg: kind, conn, seq, len });
            self.stack.udp_send(now, side, dst, port, msg.encode());
        }
        let mac = self.stack.config().mac;
        if let Some(outlet) = engine.take_fence_request() {
            ctx.send_frame(MGMT, power_off_frame(mac, outlet));
        }
        for query in engine.take_logger_queries() {
            ctx.send_frame(LAN, query.to_frame(mac));
        }
    }
}

impl Node for ServerNode {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.booted {
            // Power-on after a crash: a rebooted machine has lost every
            // TCB, every application, and every engine state — model the
            // amnesia faithfully. (Note the hazard this implies: a
            // rebooted ex-primary knows nothing of connections that
            // migrated away and will RST clients that still address it;
            // see tests/primary_reboot.rs.)
            self.stack = NetStack::new(self.stack_cfg.clone());
            self.conns.clear();
            self.accepted.clear();
            self.timer = StackTimer::default();
            self.engine = self.boot_engine(ctx.now());
            self.apply_recorder();
        }
        self.booted = true;
        self.boot_count += 1;
        program_nic(&self.stack_cfg, ctx);
        // The server pump is activity-driven; the client node stays on
        // the always-pump path (single connection, nothing to win).
        self.stack.set_activity_tracking(true);
        for &(port, _) in &self.services {
            self.stack.listen(port);
        }
        if let Some(engine) = &self.engine {
            self.side_udp = Some(self.stack.udp_bind(engine.config().side_channel_port));
            ctx.set_timer_after(engine.tick_interval(), TOK_TICK);
        }
        self.pump(ctx);
    }

    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        if port != LAN {
            return; // nothing listens on the management port
        }
        if let Some(tapped) = self.stack.handle_frame(ctx.now(), frame) {
            self.inspect_tapped(ctx.now(), tapped);
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        match token {
            TOK_TICK => {
                if let Some(engine) = &mut self.engine {
                    engine.on_tick(ctx.now(), &mut self.stack);
                    // By *current* role: a promotion moves the node from
                    // the backup's SyncTime cadence to the heartbeat's.
                    ctx.set_timer_after(engine.tick_interval(), TOK_TICK);
                }
            }
            TOK_STACK => {
                self.timer.armed = None; // a wake is spent when it comes due
                let busy = self.pump(ctx);
                StackTimer::count_wake(&self.recorder, busy);
                return;
            }
            t if t >= TOK_APP_BASE => {
                let sock = SockId::from_raw(t - TOK_APP_BASE);
                if let Some(conn) = self.conns.get_mut(&sock) {
                    conn.call(&mut self.stack, sock, t, ctx, |app, api| app.on_wake(api));
                }
            }
            _ => {}
        }
        self.pump(ctx);
    }
}

/// An unmodified TCP client driving one application over one connection.
pub struct ClientNode {
    stack: NetStack,
    target: (Ipv4Addr, u16),
    connect_delay: SimDuration,
    conn: ConnState,
    sock: Option<SockId>,
    timer: StackTimer,
    recorder: SharedRecorder,
}

impl ClientNode {
    /// A client that connects to `target` `connect_delay` after start.
    pub fn new(
        stack_cfg: StackConfig,
        target: (Ipv4Addr, u16),
        connect_delay: SimDuration,
        app: impl Application,
    ) -> Self {
        ClientNode {
            stack: NetStack::new(stack_cfg),
            target,
            connect_delay,
            conn: ConnState::new(Box::new(app)),
            sock: None,
            timer: StackTimer::default(),
            recorder: obs::nop(),
        }
    }

    /// The client's stack (inspection).
    pub fn stack(&self) -> &NetStack {
        &self.stack
    }

    /// Installs an observability recorder on the client and its stack.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.stack.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The client's socket handle once connected.
    pub fn sock(&self) -> Option<SockId> {
        self.sock
    }

    /// The application, downcast to its concrete type.
    pub fn app<T: Application>(&self) -> Option<&T> {
        let app: &dyn Any = self.conn.app.as_ref();
        app.downcast_ref::<T>()
    }

    /// Returns what [`ServerNode::pump`] does.
    fn pump(&mut self, ctx: &mut Context) -> bool {
        if let Some(sock) = self.sock {
            self.conn.pump(&mut self.stack, sock, TOK_APP_BASE, ctx);
        }
        self.timer.flush(&mut self.stack, ctx)
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Context) {
        program_nic(self.stack.config(), ctx);
        ctx.set_timer_after(self.connect_delay, TOK_CONNECT);
    }

    fn on_frame(&mut self, _port: PortId, frame: Bytes, ctx: &mut Context) {
        self.stack.handle_frame(ctx.now(), frame);
        self.pump(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        match token {
            TOK_CONNECT if self.sock.is_none() => {
                self.sock = self.stack.connect(ctx.now(), self.target.0, self.target.1).ok();
            }
            TOK_STACK => {
                self.timer.armed = None; // a wake is spent when it comes due
                let busy = self.pump(ctx);
                StackTimer::count_wake(&self.recorder, busy);
                return;
            }
            t if t >= TOK_APP_BASE => {
                if let Some(sock) = self.sock {
                    self.conn.call(&mut self.stack, sock, TOK_APP_BASE, ctx, |app, api| {
                        app.on_wake(api)
                    });
                }
            }
            _ => {}
        }
        self.pump(ctx);
    }
}

/// The two-interface gateway as a simulation node: port 0 = side A
/// (clients), port 1 = side B (server LAN).
pub struct GatewayNode {
    gw: Gateway,
}

impl GatewayNode {
    /// Wraps a configured [`Gateway`].
    pub fn new(gw: Gateway) -> Self {
        GatewayNode { gw }
    }

    /// The inner gateway (inspection).
    pub fn gateway(&self) -> &Gateway {
        &self.gw
    }
}

impl Node for GatewayNode {
    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        let side = if port == PortId(0) { Side::A } else { Side::B };
        self.gw.handle_frame(side, frame);
        for (out_side, out_frame) in self.gw.poll() {
            let out_port = PortId(out_side.index());
            ctx.send_frame(out_port, out_frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Simulator;

    /// Moves a [`StackTimer`]'s wake the way pumps do: twice in its
    /// start, then once per scripted pump, each time to the deadline
    /// the stack would have then; logs every wake that reaches it.
    struct Probe {
        timer: StackTimer,
        /// `(when a pump runs, the stack's deadline after it)`.
        pumps: Vec<(SimTime, Option<SimTime>)>,
        wakes: Vec<SimTime>,
    }

    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Context) {
            self.timer.rearm(ctx, Some(ms(30)));
            self.timer.rearm(ctx, Some(ms(10))); // one callback: the last move counts
            for (i, &(at, _)) in self.pumps.iter().enumerate() {
                ctx.set_timer_at(at, TOK_PUMP + i as u64);
            }
        }
        fn on_frame(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut Context) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context) {
            if token == TOK_STACK {
                self.timer.armed = None;
                self.wakes.push(ctx.now());
                return;
            }
            let (_, deadline) = self.pumps[(token - TOK_PUMP) as usize];
            self.timer.rearm(ctx, deadline);
        }
    }

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn a_moved_deadline_is_never_a_wake() {
        // The deadline is 10 ms after the start, moves later to 50 ms,
        // goes away, comes back at 40 ms and stays there: one wake, at
        // 40 ms. Every deadline it had before is neither an event nor a
        // call — not one superseded fire for the node to tell apart.
        let pumps = vec![
            (ms(5), Some(ms(50))),
            (ms(20), None),
            (ms(25), Some(ms(40))),
            (ms(30), Some(ms(40))),
        ];
        let mut sim = Simulator::new();
        let n = sim.add_node("probe", Probe { timer: StackTimer::default(), pumps, wakes: vec![] });
        sim.run_until_idle(100);
        assert_eq!(sim.node_ref::<Probe>(n).wakes, [ms(40)]);
        assert_eq!(sim.trace().events_processed, 6, "one start, four pumps, one wake");
    }

    /// A host whose stack has one deadline, `deadline`, which the pump
    /// that runs at `arm_at` arms; logs what reaches it, in order.
    struct Host {
        timer: StackTimer,
        arm_at: SimTime,
        deadline: SimTime,
        seen: Vec<(SimTime, &'static str)>,
    }

    const TOK_PUMP: u64 = 99;

    impl Node for Host {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.set_timer_at(self.arm_at, TOK_PUMP);
        }
        fn on_frame(&mut self, _port: PortId, _frame: Bytes, ctx: &mut Context) {
            self.seen.push((ctx.now(), "frame"));
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context) {
            match token {
                TOK_PUMP => self.timer.rearm(ctx, Some(self.deadline)),
                _ => self.seen.push((ctx.now(), "wake")),
            }
        }
    }

    /// Puts one frame on its link at `at`.
    struct Peer {
        at: SimTime,
    }

    impl Node for Peer {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.set_timer_at(self.at, 0);
        }
        fn on_frame(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut Context) {}
        fn on_timer(&mut self, _token: u64, ctx: &mut Context) {
            ctx.send_frame(LAN, Bytes::from_static(&[0; 60]));
        }
    }

    /// What a host whose deadline is 200 ms sees at 200 ms when a frame
    /// sent at 190 ms over a 10 ms link lands on that nanosecond too.
    fn same_nanosecond_order(arm_at: SimTime) -> Vec<(SimTime, &'static str)> {
        let mut sim = Simulator::new();
        let host = Host { timer: StackTimer::default(), arm_at, deadline: ms(200), seen: vec![] };
        let host = sim.add_node("host", host);
        let peer = sim.add_node("peer", Peer { at: ms(190) });
        let link = netsim::LinkSpec::ideal().with_latency(SimDuration::from_millis(10));
        sim.connect(host, LAN, peer, LAN, link);
        sim.run_until_idle(100);
        std::mem::take(&mut sim.node_mut::<Host>(host).seen)
    }

    #[test]
    fn a_wake_armed_when_the_deadline_is_set_runs_before_a_later_frame() {
        // Events of one instant run in the order they were scheduled.
        // An exact `NetStack::next_deadline()` lets the pump that *sets*
        // a deadline arm its wake, so the wake is older than any frame
        // sent afterwards that lands on the same nanosecond: the RTO
        // fires, then the frame is handled.
        assert_eq!(same_nanosecond_order(ms(0)), [(ms(200), "wake"), (ms(200), "frame")]);
        // A wake armed only once the deadline is near (a timer wheel's
        // coarse slot) is the younger event, and the frame gets in first.
        assert_eq!(same_nanosecond_order(ms(199)), [(ms(200), "frame"), (ms(200), "wake")]);
    }
}
