//! The Flux game server (paper §4.4): multiplayer Tag over UDP at 10 Hz.
//!
//! Two sources: `ReceiveMove` (client datagrams: joins, moves, leaves)
//! and `Tick` (the heartbeat timer). The shared world is guarded by the
//! `world` atomicity constraint; the client table by `clients`. The
//! heartbeat flow computes the new state under the writer constraint
//! and broadcasts the identical snapshot to every player — the paper's
//! consistency requirement.

use crate::builder::{RunningServer, ServerSpec};
use flux_core::CompiledProgram;
use flux_game::{encode_snapshot, ClientMsg, Snapshot, World, TICK_MS};
use flux_net::{ConnDriver, Datagram, NetConfig};
use flux_runtime::{NodeOutcome, NodeRegistry, SourceOutcome};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The Flux program (~54 lines in the paper's Table 1).
pub const FLUX_SRC: &str = r#"
    ReceiveMove () => (game_msg *m);
    AddPlayer (game_msg *m) => ();
    RemovePlayer (game_msg *m) => ();
    Validate (game_msg *m) => (game_msg *m);
    ApplyMove (game_msg *m) => ();
    BadMove (game_msg *m) => ();

    Tick () => (int tick);
    ComputeState (int tick) => (game_state *s);
    Broadcast (game_state *s) => ();

    typedef is_join IsJoin;
    typedef is_leave IsLeave;

    source ReceiveMove => MoveFlow;
    MoveFlow:[is_join] = AddPlayer;
    MoveFlow:[is_leave] = RemovePlayer;
    MoveFlow:[_] = Validate -> ApplyMove;

    source Tick => TickFlow;
    TickFlow = ComputeState -> Broadcast;

    handle error Validate => BadMove;

    atomic AddPlayer: {clients, world};
    atomic RemovePlayer: {clients, world};
    atomic ApplyMove: {world};
    atomic ComputeState: {world};
    atomic Broadcast: {clients?};

    blocking Broadcast;
"#;

/// Per-flow payload.
pub struct GameFlow {
    pub msg: Option<ClientMsg>,
    pub from: String,
    pub snapshot: Option<Snapshot>,
    pub tick: u64,
}

/// Shared context.
pub struct GameCtx {
    pub socket: Arc<dyn Datagram>,
    /// The authoritative world (`world` constraint's data).
    pub world: Mutex<World>,
    /// player id -> reply address (`clients` constraint's data).
    pub clients: Mutex<HashMap<u32, String>>,
    pub moves_applied: AtomicU64,
    pub broadcasts: AtomicU64,
    pub bad_moves: AtomicU64,
    pub running: AtomicBool,
}

/// Configuration.
pub struct GameConfig {
    pub socket: Arc<dyn Datagram>,
    /// Heartbeat period (100 ms = 10 Hz in the paper; tests shorten it).
    pub tick: Duration,
    /// World RNG seed.
    pub seed: u64,
}

impl ServerSpec for GameConfig {
    type Flow = GameFlow;
    type Ctx = Arc<GameCtx>;

    fn build(self, _net: &NetConfig) -> (CompiledProgram, NodeRegistry<GameFlow>, Arc<GameCtx>) {
        build(self)
    }

    /// The game server speaks datagrams directly; there is no
    /// connection driver to publish counters for.
    fn driver(_ctx: &Arc<GameCtx>) -> Option<Arc<ConnDriver>> {
        None
    }
}

/// Builds the compiled program, registry and context. `ReceiveMove`
/// blocks at most `LISTEN_POLL` (20 ms) per datagram poll.
pub fn build(config: GameConfig) -> (CompiledProgram, NodeRegistry<GameFlow>, Arc<GameCtx>) {
    let program = flux_core::compile(FLUX_SRC).expect("game server Flux program compiles");
    let ctx = Arc::new(GameCtx {
        socket: config.socket,
        world: Mutex::new(World::new(config.seed)),
        clients: Mutex::new(HashMap::new()),
        moves_applied: AtomicU64::new(0),
        broadcasts: AtomicU64::new(0),
        bad_moves: AtomicU64::new(0),
        running: AtomicBool::new(true),
    });

    let mut reg: NodeRegistry<GameFlow> = NodeRegistry::new();

    // No `on_shed` handler: this is a datagram protocol, and dropping a
    // move under overload is indistinguishable from network loss the
    // client already tolerates. A shed datagram still lands in the
    // runtime's overload counters.
    let c = ctx.clone();
    reg.source("ReceiveMove", move || {
        if !c.running.load(Ordering::SeqCst) {
            return SourceOutcome::Shutdown;
        }
        let mut buf = [0u8; 256];
        match c.socket.recv_from(&mut buf, Some(crate::LISTEN_POLL)) {
            Ok(Some((n, from))) => match ClientMsg::decode(&buf[..n]) {
                Some(msg) => SourceOutcome::New(GameFlow {
                    msg: Some(msg),
                    from,
                    snapshot: None,
                    tick: 0,
                }),
                None => SourceOutcome::Skip,
            },
            Ok(None) => SourceOutcome::Skip,
            Err(_) => SourceOutcome::Skip,
        }
    });

    reg.predicate("IsJoin", |f: &GameFlow| {
        matches!(f.msg, Some(ClientMsg::Join { .. }))
    });
    reg.predicate("IsLeave", |f: &GameFlow| {
        matches!(f.msg, Some(ClientMsg::Leave { .. }))
    });

    let c = ctx.clone();
    reg.node("AddPlayer", move |f: &mut GameFlow| {
        let Some(ClientMsg::Join { player }) = f.msg else {
            return NodeOutcome::Err(1);
        };
        c.world.lock().join(player);
        c.clients.lock().insert(player, f.from.clone());
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("RemovePlayer", move |f: &mut GameFlow| {
        let Some(ClientMsg::Leave { player }) = f.msg else {
            return NodeOutcome::Err(1);
        };
        c.world.lock().leave(player);
        c.clients.lock().remove(&player);
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("Validate", move |f: &mut GameFlow| {
        let Some(ClientMsg::Move(m)) = &f.msg else {
            return NodeOutcome::Err(1);
        };
        // Unknown players' moves are rejected (the error handler counts
        // them).
        if !c.clients.lock().contains_key(&m.player) {
            return NodeOutcome::Err(2);
        }
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("ApplyMove", move |f: &mut GameFlow| {
        let Some(ClientMsg::Move(m)) = f.msg else {
            return NodeOutcome::Err(1);
        };
        c.world.lock().apply_move(m);
        c.moves_applied.fetch_add(1, Ordering::Relaxed);
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("BadMove", move |_f: &mut GameFlow| {
        c.bad_moves.fetch_add(1, Ordering::Relaxed);
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    let tick_period = config.tick;
    let tick_counter = AtomicU64::new(0);
    reg.source("Tick", move || {
        if !c.running.load(Ordering::SeqCst) {
            return SourceOutcome::Shutdown;
        }
        std::thread::sleep(tick_period);
        SourceOutcome::New(GameFlow {
            msg: None,
            from: String::new(),
            snapshot: None,
            tick: tick_counter.fetch_add(1, Ordering::SeqCst),
        })
    });

    let c = ctx.clone();
    reg.node("ComputeState", move |f: &mut GameFlow| {
        f.snapshot = Some(c.world.lock().step());
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node_blocking("Broadcast", move |f: &mut GameFlow| {
        let snap = f.snapshot.as_ref().expect("ComputeState ran");
        let wire = encode_snapshot(snap);
        let clients = c.clients.lock();
        for addr in clients.values() {
            let _ = c.socket.send_to(&wire, addr);
        }
        drop(clients);
        c.broadcasts.fetch_add(1, Ordering::Relaxed);
        NodeOutcome::Ok
    });

    (program, reg, ctx)
}

/// A running Flux game server — what [`crate::ServerBuilder::spawn`]
/// returns for a [`GameConfig`].
pub type GameServer = RunningServer<GameFlow, Arc<GameCtx>>;

/// Stops a game server.
pub fn stop(server: GameServer) {
    server.ctx.running.store(false, Ordering::SeqCst);
    server.handle.server().request_shutdown();
    server.handle.stop();
}

/// The default heartbeat period (10 Hz).
pub fn default_tick() -> Duration {
    Duration::from_millis(TICK_MS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_game::decode_snapshot;
    use flux_net::MemNet;
    use flux_runtime::RuntimeKind;

    fn run_game_test(runtime: RuntimeKind) {
        let net = MemNet::new();
        let server_sock = Arc::new(net.bind_datagram("game").unwrap());
        let server = crate::ServerBuilder::new(GameConfig {
            socket: server_sock,
            tick: Duration::from_millis(10),
            seed: 42,
        })
        .runtime(runtime)
        .spawn();

        // Two clients join and move. Player 2 joins only once a
        // broadcast shows player 1: the thread pool may apply two
        // back-to-back datagrams in either order, and "first joiner"
        // means first applied.
        let c1 = net.bind_datagram("p1").unwrap();
        let c2 = net.bind_datagram("p2").unwrap();
        let mut buf = [0u8; 2048];
        let mut snapshot_with = |players: usize| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                assert!(std::time::Instant::now() < deadline, "no broadcast");
                if let Some((n, _)) = c1
                    .recv_from(&mut buf, Some(Duration::from_millis(200)))
                    .unwrap()
                {
                    let snap = decode_snapshot(&buf[..n]).unwrap();
                    if snap.players.len() == players {
                        return snap;
                    }
                }
            }
        };
        c1.send_to(&ClientMsg::Join { player: 1 }.encode(), "game")
            .unwrap();
        snapshot_with(1);
        c2.send_to(&ClientMsg::Join { player: 2 }.encode(), "game")
            .unwrap();
        let snap = snapshot_with(2);
        assert_eq!(snap.it, Some(1), "first joiner is it");

        // Move player 2 and observe the position change.
        let before = snap.players.iter().find(|&&(id, _)| id == 2).unwrap().1;
        c2.send_to(
            &ClientMsg::Move(flux_game::Move {
                player: 2,
                dx: 25,
                dy: 0,
            })
            .encode(),
            "game",
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            assert!(std::time::Instant::now() < deadline, "move not applied");
            if let Some((n, _)) = c2
                .recv_from(&mut buf, Some(Duration::from_millis(200)))
                .unwrap()
            {
                let snap = decode_snapshot(&buf[..n]).unwrap();
                let after = snap.players.iter().find(|&&(id, _)| id == 2).unwrap().1;
                if after != before {
                    assert_eq!(after.x, (before.x + 25).min(flux_game::WORLD_W - 1));
                    break;
                }
            }
        }
        assert!(server.ctx.broadcasts.load(Ordering::Relaxed) > 0);
        stop(server);
    }

    #[test]
    fn plays_on_thread_pool() {
        run_game_test(RuntimeKind::ThreadPool { workers: 4 });
    }

    #[test]
    fn plays_on_event_runtime() {
        run_game_test(RuntimeKind::event_driven_sharded(1, 2));
    }

    #[test]
    fn unknown_player_move_is_bad() {
        let net = MemNet::new();
        let server_sock = Arc::new(net.bind_datagram("game").unwrap());
        let server = crate::ServerBuilder::new(GameConfig {
            socket: server_sock,
            tick: Duration::from_millis(50),
            seed: 1,
        })
        .runtime(RuntimeKind::ThreadPool { workers: 2 })
        .spawn();
        let c = net.bind_datagram("ghost").unwrap();
        c.send_to(
            &ClientMsg::Move(flux_game::Move {
                player: 99,
                dx: 1,
                dy: 1,
            })
            .encode(),
            "game",
        )
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.ctx.bad_moves.load(Ordering::Relaxed) == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.ctx.bad_moves.load(Ordering::Relaxed), 1);
        stop(server);
    }

    #[test]
    fn program_compiles_with_expected_constraints() {
        let program = flux_core::compile(FLUX_SRC).unwrap();
        assert_eq!(program.flows.len(), 2);
        let (_, n) = program.graph.node("ComputeState").unwrap();
        assert_eq!(n.constraints.len(), 1);
        assert_eq!(n.constraints[0].name, "world");
    }
}
