//! The Flux BitTorrent peer (paper §4.3, Figure 7).
//!
//! The program graph follows Figure 7: one `Listen` source selects over
//! peer sockets (`GetClients -> SelectSockets -> CheckSockets`), new
//! connections flow through `SetupConnection -> Handshake ->
//! SendBitfield`, and messages flow through `ReadMessage ->
//! HandleMessage -> <per-type node> -> MessageDone` with predicate
//! dispatch over the message kind. Timer sources drive the tracker
//! check-in (`TrackerTimer`), the choke recomputation (`ChokeTimer`)
//! and keep-alives (`KeepAliveTimer`).
//!
//! As in the paper's benchmark setup, every peer is unchoked by default
//! and the bench peer holds a complete copy (a seeder). `CheckSockets`
//! returns an error when a wakeup carries no work (the peer sent only a
//! keep-alive) — that is the paper's famous most-frequent hot path
//! `Listen -> GetClients -> SelectSockets -> CheckSockets -> ERROR`.
//!
//! Every reply (handshake, bitfield, piece blocks, keep-alives) is
//! *enqueued* on the driver's non-blocking write path and drained by
//! the reactor on `POLLOUT`; the seed version held the connection lock
//! across `write_all` inside `Request`, occupying an I/O worker (and
//! blocking every other node touching that session) for the whole send.

use crate::builder::{RunningServer, ServerSpec};
use flux_bittorrent::{Handshake, Message, Metainfo, PieceStore};
use flux_core::CompiledProgram;
use flux_net::{ConnDriver, DriverEvent, Listener, NetConfig, SharedConn, Token};
use flux_runtime::{NodeOutcome, NodeRegistry, SourceOutcome};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The Flux program (~84 lines in the paper's Table 1).
pub const FLUX_SRC: &str = r#"
    Listen () => (int token, bool isnew);
    GetClients (int token, bool isnew) => (int token, bool isnew);
    SelectSockets (int token, bool isnew) => (int token, bool isnew);
    CheckSockets (int token, bool isnew)
      => (int token, bool isnew, bt_message *msg);

    AcceptHandshake (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    SendBitfield (int token, bool isnew, bt_message *msg) => ();

    ReadMessage (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Request (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Piece (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Have (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Bitfield (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Interested (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Uninterested (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Choke (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Unchoke (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    Cancel (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    UnknownMessage (int token, bool isnew, bt_message *msg)
      => (int token, bool isnew, bt_message *msg);
    MessageDone (int token, bool isnew, bt_message *msg) => ();
    DropPeer (int token, bool isnew, bt_message *msg) => ();

    TrackerTimer () => (int tick);
    CheckinWithTracker (int tick) => (int tick);
    SendRequestToTracker (int tick) => (int tick, tracker_response *resp);
    GetTrackerResponse (int tick, tracker_response *resp) => ();

    ChokeTimer () => (int tick);
    UpdateChokeList (int tick) => (int tick);
    PickChoked (int tick) => (int tick);
    SendChokeUnchoke (int tick) => ();

    KeepAliveTimer () => (int tick);
    SendKeepAlives (int tick) => ();

    typedef is_request IsRequest;
    typedef is_piece IsPiece;
    typedef is_have IsHave;
    typedef is_bitfield IsBitfield;
    typedef is_interested IsInterested;
    typedef is_uninterested IsUninterested;
    typedef is_choke IsChoke;
    typedef is_unchoke IsUnchoke;
    typedef is_cancel IsCancel;
    typedef is_new IsNew;

    source Listen => Peer;
    Peer = GetClients -> SelectSockets -> CheckSockets -> Work;
    Work:[_, is_new, _] = AcceptHandshake -> SendBitfield;
    Work:[_, _, _] = Message;
    Message = ReadMessage -> HandleMessage -> MessageDone;
    HandleMessage:[_, _, is_request] = Request;
    HandleMessage:[_, _, is_piece] = Piece;
    HandleMessage:[_, _, is_have] = Have;
    HandleMessage:[_, _, is_bitfield] = Bitfield;
    HandleMessage:[_, _, is_interested] = Interested;
    HandleMessage:[_, _, is_uninterested] = Uninterested;
    HandleMessage:[_, _, is_choke] = Choke;
    HandleMessage:[_, _, is_unchoke] = Unchoke;
    HandleMessage:[_, _, is_cancel] = Cancel;
    HandleMessage:[_, _, _] = UnknownMessage;

    source TrackerTimer => Announce;
    Announce = CheckinWithTracker -> SendRequestToTracker -> GetTrackerResponse;

    source ChokeTimer => Choking;
    Choking = UpdateChokeList -> PickChoked -> SendChokeUnchoke;

    source KeepAliveTimer => KeepAlive;
    KeepAlive = SendKeepAlives;

    handle error ReadMessage => DropPeer;
    handle error AcceptHandshake => DropPeer;
    handle error UnknownMessage => DropPeer;

    atomic GetClients: {clients?};
    atomic AcceptHandshake: {clients};
    atomic DropPeer: {clients};
    atomic SendKeepAlives: {clients?};
    atomic SendChokeUnchoke: {clients?};
    atomic UpdateChokeList: {choking};
    atomic PickChoked: {choking};

    blocking CheckSockets;
    blocking ReadMessage;
    blocking SendRequestToTracker;
"#;

/// Per-flow payload.
pub struct BtFlow {
    pub token: Token,
    pub isnew: bool,
    pub msg: Option<Message>,
    conn: Option<SharedConn>,
    pub tick: u64,
}

impl BtFlow {
    fn empty(token: Token, isnew: bool, conn: Option<SharedConn>) -> BtFlow {
        BtFlow {
            token,
            isnew,
            msg: None,
            conn,
            tick: 0,
        }
    }
}

/// One connected peer's server-side state.
pub struct PeerState {
    pub peer_id: [u8; 20],
    pub choked: bool,
    pub interested: bool,
    pub have: Vec<bool>,
}

/// Shared context for the peer.
pub struct BtCtx {
    pub driver: Arc<ConnDriver>,
    pub store: PieceStore,
    /// Connected peers (the `clients` constraint's data).
    pub peers: Mutex<HashMap<Token, PeerState>>,
    /// Tracker connector: opens a connection to the tracker address.
    tracker_dial: Box<dyn Fn() -> Option<Box<dyn flux_net::Conn>> + Send + Sync>,
    pub peer_id: [u8; 20],
    pub addr: String,
    /// Stats.
    pub blocks_served: AtomicU64,
    pub bytes_up: AtomicU64,
    pub keepalives_seen: AtomicU64,
    pub announces: AtomicU64,
    pub running: AtomicBool,
}

/// Configuration for the Flux peer.
pub struct BtConfig {
    pub listener: Box<dyn Listener>,
    pub meta: Metainfo,
    pub file: Vec<u8>,
    /// Opens a fresh connection to the tracker (None disables announces).
    pub tracker_dial: Option<Box<dyn Fn() -> Option<Box<dyn flux_net::Conn>> + Send + Sync>>,
    pub peer_id: [u8; 20],
    /// Address peers can reach us at (goes to the tracker).
    pub addr: String,
    /// Timer periods (shortened in tests).
    pub tracker_period: Duration,
    pub choke_period: Duration,
    pub keepalive_period: Duration,
}

impl ServerSpec for BtConfig {
    type Flow = BtFlow;
    type Ctx = Arc<BtCtx>;

    fn build(self, net: &NetConfig) -> (CompiledProgram, NodeRegistry<BtFlow>, Arc<BtCtx>) {
        build(self, net)
    }

    fn driver(ctx: &Arc<BtCtx>) -> Option<Arc<ConnDriver>> {
        Some(ctx.driver.clone())
    }
}

/// Builds the compiled Figure 7 program, registry and context.
pub fn build(
    config: BtConfig,
    net: &NetConfig,
) -> (CompiledProgram, NodeRegistry<BtFlow>, Arc<BtCtx>) {
    let program = flux_core::compile(FLUX_SRC).expect("BitTorrent Flux program compiles");
    let driver = Arc::new(ConnDriver::with_config(net));
    driver.spawn_acceptor(config.listener);
    let store = PieceStore::new(config.meta, config.file).expect("seed file matches metainfo");
    let ctx = Arc::new(BtCtx {
        driver,
        store,
        peers: Mutex::new(HashMap::new()),
        tracker_dial: config.tracker_dial.unwrap_or_else(|| Box::new(|| None)),
        peer_id: config.peer_id,
        addr: config.addr,
        blocks_served: AtomicU64::new(0),
        bytes_up: AtomicU64::new(0),
        keepalives_seen: AtomicU64::new(0),
        announces: AtomicU64::new(0),
        running: AtomicBool::new(true),
    });

    let mut reg: NodeRegistry<BtFlow> = NodeRegistry::new();

    // ------------------------------------------------ the Listen flow --
    let c = ctx.clone();
    reg.source("Listen", move || {
        if !c.running.load(Ordering::SeqCst) {
            return SourceOutcome::Shutdown;
        }
        match c.driver.next_event(crate::LISTEN_POLL) {
            None => SourceOutcome::Skip,
            Some(DriverEvent::Incoming(token)) => {
                SourceOutcome::New(BtFlow::empty(token, true, c.driver.get(token)))
            }
            Some(DriverEvent::WriteDone(_)) => SourceOutcome::Skip,
            Some(DriverEvent::WriteFailed(token)) => {
                // The driver already removed the broken connection;
                // forget the peer as well.
                c.peers.lock().remove(&token);
                SourceOutcome::Skip
            }
            Some(DriverEvent::Readable(token)) => {
                SourceOutcome::New(BtFlow::empty(token, false, c.driver.get(token)))
            }
        }
    });

    // Bookkeeping nodes: in the paper these fetch the client table and
    // select; here the driver has preselected, so they validate state
    // under the `clients` reader constraint.
    let c = ctx.clone();
    reg.node("GetClients", move |f: &mut BtFlow| {
        if !f.isnew && !c.peers.lock().contains_key(&f.token) {
            // Peer vanished between readiness and processing.
            return NodeOutcome::Err(1);
        }
        NodeOutcome::Ok
    });
    reg.node("SelectSockets", |_f: &mut BtFlow| NodeOutcome::Ok);

    // CheckSockets: consume keep-alives here. A keep-alive wakeup means
    // "no outstanding chunk requests" — the paper's most frequent path,
    // which exits with an error right here.
    let c = ctx.clone();
    reg.node_blocking("CheckSockets", move |f: &mut BtFlow| {
        if f.isnew {
            return NodeOutcome::Ok;
        }
        let Some(conn) = f.conn.clone() else {
            return NodeOutcome::Err(1);
        };
        let mut guard = conn.lock();
        match Message::read_from(&mut **guard) {
            Ok(Message::KeepAlive) => {
                drop(guard);
                c.keepalives_seen.fetch_add(1, Ordering::Relaxed);
                // A keep-alive is the peer's liveness signal: real
                // progress as far as the idle reaper is concerned.
                c.driver.mark_progress(f.token);
                c.driver.arm(f.token);
                NodeOutcome::Err(100) // nothing to do: the hot ERROR path
            }
            Ok(msg) => {
                drop(guard);
                c.driver.mark_progress(f.token);
                f.msg = Some(msg);
                NodeOutcome::Ok
            }
            Err(_) => {
                drop(guard);
                // Disconnect: clean the peer table.
                c.peers.lock().remove(&f.token);
                c.driver.remove(f.token);
                NodeOutcome::Err(2)
            }
        }
    });

    reg.predicate("IsNew", |f: &BtFlow| f.isnew);

    // Overload shedding (OverloadPolicy::Bounded): the wire protocol
    // has no cheap error frame, so a shed peer event closes the
    // connection — the peer observes EOF and re-dials another seed,
    // which is BitTorrent's native retry path.
    let c = ctx.clone();
    reg.on_shed(move |f: BtFlow| {
        c.peers.lock().remove(&f.token);
        c.driver.remove(f.token);
    });

    // ---------------------------------------------- connection set-up --
    let c = ctx.clone();
    reg.node("AcceptHandshake", move |f: &mut BtFlow| {
        let Some(conn) = f.conn.clone() else {
            return NodeOutcome::Err(1);
        };
        let mut guard = conn.lock();
        let hs = match Handshake::read_from(&mut **guard) {
            Ok(hs) => hs,
            Err(_) => return NodeOutcome::Err(2),
        };
        drop(guard);
        if hs.info_hash != c.store.metainfo().info_hash {
            return NodeOutcome::Err(3);
        }
        let reply = Handshake {
            info_hash: c.store.metainfo().info_hash,
            peer_id: c.peer_id,
        };
        // Enqueue the reply; the per-connection buffer keeps it ordered
        // ahead of the bitfield SendBitfield enqueues next.
        if !c.driver.submit_write(f.token, &reply.encode()) {
            return NodeOutcome::Err(4);
        }
        c.peers.lock().insert(
            f.token,
            PeerState {
                peer_id: hs.peer_id,
                choked: false, // everyone unchoked by default (paper §4.3)
                interested: false,
                have: vec![false; c.store.metainfo().num_pieces()],
            },
        );
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("SendBitfield", move |f: &mut BtFlow| {
        let bits = c.store.bitfield();
        let msg = Message::Bitfield(bits.as_bytes().to_vec());
        if !c.driver.submit_write(f.token, &msg.encode()) {
            return NodeOutcome::Err(2);
        }
        c.driver.arm(f.token);
        NodeOutcome::Ok
    });

    // ------------------------------------------------- message chains --
    reg.node("ReadMessage", |f: &mut BtFlow| {
        // CheckSockets already read the message (single read point); this
        // node validates it exists — separate nodes keep the Figure 7
        // path structure observable in profiles.
        if f.msg.is_some() {
            NodeOutcome::Ok
        } else {
            NodeOutcome::Err(1)
        }
    });

    macro_rules! kind_pred {
        ($name:literal, $kind:literal) => {
            reg.predicate($name, |f: &BtFlow| {
                f.msg.as_ref().is_some_and(|m| m.kind() == $kind)
            });
        };
    }
    kind_pred!("IsRequest", "request");
    kind_pred!("IsPiece", "piece");
    kind_pred!("IsHave", "have");
    kind_pred!("IsBitfield", "bitfield");
    kind_pred!("IsInterested", "interested");
    kind_pred!("IsUninterested", "uninterested");
    kind_pred!("IsChoke", "choke");
    kind_pred!("IsUnchoke", "unchoke");
    kind_pred!("IsCancel", "cancel");

    // The hot node: serve a block. The piece reply is *enqueued*, not
    // written: the seed version held the connection lock across
    // `write_all` on an I/O worker — exactly the hidden blocking the
    // event-driven runtime exists to avoid. The reactor drains the
    // bytes via POLLOUT if the peer's socket is full. The reply is
    // framed directly from the piece store into a pooled buffer
    // (`encode_piece_into` + `submit_write_buf`), so the steady-state
    // seeding path allocates nothing and copies the block once.
    let c = ctx.clone();
    reg.node("Request", move |f: &mut BtFlow| {
        let Some(Message::Request {
            index,
            begin,
            length,
        }) = f.msg
        else {
            return NodeOutcome::Err(1);
        };
        let Some(block) = c.store.read_block(index, begin, length) else {
            return NodeOutcome::Err(2);
        };
        let mut reply = c.driver.take_write_buf();
        Message::encode_piece_into(index, begin, block, &mut reply);
        // Count before submitting: the submit may deliver the bytes at
        // once, and a peer that has its last block must already see it
        // counted.
        let up = length as u64 + 13;
        c.blocks_served.fetch_add(1, Ordering::Relaxed);
        c.bytes_up.fetch_add(up, Ordering::Relaxed);
        if !c.driver.submit_write_buf(f.token, reply) {
            c.blocks_served.fetch_sub(1, Ordering::Relaxed);
            c.bytes_up.fetch_sub(up, Ordering::Relaxed);
            return NodeOutcome::Err(4);
        }
        NodeOutcome::Ok
    });

    // Seeder-side handlers for the remaining message types.
    let c = ctx.clone();
    reg.node("Have", move |f: &mut BtFlow| {
        if let Some(Message::Have { index }) = f.msg {
            if let Some(p) = c.peers.lock().get_mut(&f.token) {
                if let Some(h) = p.have.get_mut(index as usize) {
                    *h = true;
                }
            }
        }
        NodeOutcome::Ok
    });
    let c = ctx.clone();
    reg.node("Bitfield", move |f: &mut BtFlow| {
        if let Some(Message::Bitfield(bits)) = &f.msg {
            if let Some(p) = c.peers.lock().get_mut(&f.token) {
                for (i, h) in p.have.iter_mut().enumerate() {
                    *h = bits.get(i / 8).is_some_and(|b| b & (0x80 >> (i % 8)) != 0);
                }
            }
        }
        NodeOutcome::Ok
    });
    let c = ctx.clone();
    reg.node("Interested", move |f: &mut BtFlow| {
        if let Some(p) = c.peers.lock().get_mut(&f.token) {
            p.interested = true;
        }
        NodeOutcome::Ok
    });
    let c = ctx.clone();
    reg.node("Uninterested", move |f: &mut BtFlow| {
        if let Some(p) = c.peers.lock().get_mut(&f.token) {
            p.interested = false;
        }
        NodeOutcome::Ok
    });
    reg.node("UnknownMessage", |_f: &mut BtFlow| {
        // Protocol violation: error into the DropPeer handler.
        NodeOutcome::Err(1)
    });
    reg.node("Choke", |_f: &mut BtFlow| NodeOutcome::Ok);
    reg.node("Unchoke", |_f: &mut BtFlow| NodeOutcome::Ok);
    reg.node("Cancel", |_f: &mut BtFlow| NodeOutcome::Ok);
    reg.node("Piece", |_f: &mut BtFlow| {
        // A seeder receives no piece data; accept and ignore.
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("MessageDone", move |f: &mut BtFlow| {
        c.driver.arm(f.token); // wait for the peer's next message
        NodeOutcome::Ok
    });

    let c = ctx.clone();
    reg.node("DropPeer", move |f: &mut BtFlow| {
        c.peers.lock().remove(&f.token);
        c.driver.remove(f.token);
        NodeOutcome::Ok
    });

    // ---------------------------------------------------- timer flows --
    // Timer sources sleep in 50 ms slices so shutdown stays responsive
    // even with hour-long periods.
    fn timer_source(
        ctx: Arc<BtCtx>,
        period: Duration,
    ) -> impl Fn() -> SourceOutcome<BtFlow> + Send + Sync {
        let tick = AtomicU64::new(0);
        let slept = Mutex::new(Duration::ZERO);
        move || {
            if !ctx.running.load(Ordering::SeqCst) {
                return SourceOutcome::Shutdown;
            }
            let slice = Duration::from_millis(50).min(period);
            std::thread::sleep(slice);
            let mut acc = slept.lock();
            *acc += slice;
            if *acc < period {
                return SourceOutcome::Skip;
            }
            *acc = Duration::ZERO;
            drop(acc);
            SourceOutcome::New(BtFlow {
                token: 0,
                isnew: false,
                msg: None,
                conn: None,
                tick: tick.fetch_add(1, Ordering::SeqCst),
            })
        }
    }

    reg.source(
        "TrackerTimer",
        timer_source(ctx.clone(), config.tracker_period),
    );
    reg.node("CheckinWithTracker", |_f: &mut BtFlow| NodeOutcome::Ok);
    let c = ctx.clone();
    reg.node_blocking("SendRequestToTracker", move |_f: &mut BtFlow| {
        let Some(mut conn) = (c.tracker_dial)() else {
            return NodeOutcome::Err(1);
        };
        let req = flux_bittorrent::Announce {
            info_hash: c.store.metainfo().info_hash,
            peer_id: c.peer_id,
            addr: c.addr.clone(),
            left: 0,
        };
        match flux_bittorrent::announce(&mut *conn, &req) {
            Ok(_resp) => {
                c.announces.fetch_add(1, Ordering::Relaxed);
                NodeOutcome::Ok
            }
            Err(_) => NodeOutcome::Err(2),
        }
    });
    reg.node("GetTrackerResponse", |_f: &mut BtFlow| NodeOutcome::Ok);

    reg.source("ChokeTimer", timer_source(ctx.clone(), config.choke_period));
    // The bench policy: everyone stays unchoked (paper §4.3 modified
    // both implementations this way). The nodes still run so the
    // choking flow appears in profiles.
    reg.node("UpdateChokeList", |_f: &mut BtFlow| NodeOutcome::Ok);
    reg.node("PickChoked", |_f: &mut BtFlow| NodeOutcome::Ok);
    let c = ctx.clone();
    reg.node("SendChokeUnchoke", move |_f: &mut BtFlow| {
        // All peers unchoked: nothing to send, but touch the table under
        // the reader constraint as the real policy would.
        let _interested = c.peers.lock().values().filter(|p| p.interested).count();
        NodeOutcome::Ok
    });

    reg.source(
        "KeepAliveTimer",
        timer_source(ctx.clone(), config.keepalive_period),
    );
    let c = ctx.clone();
    reg.node("SendKeepAlives", move |_f: &mut BtFlow| {
        let tokens: Vec<Token> = c.peers.lock().keys().copied().collect();
        let keepalive = Message::KeepAlive.encode();
        for t in tokens {
            // Enqueue-and-complete: a peer with a full socket must not
            // stall the keep-alive sweep (which holds the `clients?`
            // constraint) — the reactor drains stragglers.
            let _ = c.driver.submit_write(t, &keepalive);
        }
        NodeOutcome::Ok
    });

    (program, reg, ctx)
}

/// A running Flux BitTorrent peer — what
/// [`crate::ServerBuilder::spawn`] returns for a [`BtConfig`].
pub type BtServer = RunningServer<BtFlow, Arc<BtCtx>>;

/// Stops a peer.
pub fn stop(server: BtServer) {
    server.ctx.running.store(false, Ordering::SeqCst);
    server.ctx.driver.stop();
    server.handle.server().request_shutdown();
    server.handle.stop();
}

/// A simple protocol-level client for tests and the load generator:
/// handshakes and downloads the whole file sequentially.
pub mod client {
    use super::*;
    use flux_bittorrent::{BlockResult, PieceAssembler, BLOCK_SIZE};
    use std::io::Write as _;

    /// Downloads the complete file from a seeder over `conn`. Returns
    /// the file and the number of keep-alives sent (the load generator
    /// interleaves them; see module docs).
    pub fn download(
        mut conn: Box<dyn flux_net::Conn>,
        meta: &Metainfo,
        peer_id: [u8; 20],
        keepalive_every: Option<u32>,
    ) -> std::io::Result<Vec<u8>> {
        let hs = Handshake {
            info_hash: meta.info_hash,
            peer_id,
        };
        conn.write_all(&hs.encode())?;
        let _their_hs = Handshake::read_from(&mut *conn)?;
        // Expect the seeder's bitfield.
        let first = Message::read_from(&mut *conn)?;
        if !matches!(first, Message::Bitfield(_)) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected bitfield, got {}", first.kind()),
            ));
        }
        let mut asm = PieceAssembler::new(meta.clone());
        let mut sent = 0u32;
        for piece in 0..meta.num_pieces() as u32 {
            for (begin, length) in piece_blocks(meta, piece) {
                if let Some(k) = keepalive_every {
                    if sent.is_multiple_of(k) {
                        Message::KeepAlive.write_to(&mut *conn)?;
                    }
                }
                Message::Request {
                    index: piece,
                    begin,
                    length,
                }
                .write_to(&mut *conn)?;
                sent += 1;
                // Read messages until the matching piece arrives.
                loop {
                    match Message::read_from(&mut *conn)? {
                        Message::Piece { index, begin, data } => {
                            match asm.add_block(index, begin, &data) {
                                BlockResult::Rejected => {
                                    return Err(std::io::Error::new(
                                        std::io::ErrorKind::InvalidData,
                                        "block rejected",
                                    ));
                                }
                                BlockResult::HashMismatch => {
                                    return Err(std::io::Error::new(
                                        std::io::ErrorKind::InvalidData,
                                        "piece hash mismatch",
                                    ));
                                }
                                _ => {}
                            }
                            break;
                        }
                        Message::KeepAlive | Message::Have { .. } => continue,
                        other => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!("unexpected {}", other.kind()),
                            ));
                        }
                    }
                }
            }
        }
        Ok(asm.into_data())
    }

    fn piece_blocks(meta: &Metainfo, piece: u32) -> Vec<(u32, u32)> {
        let size = meta.piece_size(piece as usize) as u32;
        let mut out = Vec::new();
        let mut begin = 0;
        while begin < size {
            out.push((begin, BLOCK_SIZE.min(size - begin)));
            begin += BLOCK_SIZE;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_bittorrent::{synth_file, Tracker};
    use flux_net::MemNet;
    use flux_runtime::RuntimeKind;

    fn setup(net: &Arc<MemNet>, file_len: usize) -> (BtConfig, Metainfo, Vec<u8>) {
        let file = synth_file(file_len, 7);
        let meta = Metainfo::from_file("mem:tracker", "bench.bin", 32 * 1024, &file);
        let listener = net.listen("peer").unwrap();
        (
            BtConfig {
                listener: Box::new(listener),
                meta: meta.clone(),
                file: file.clone(),
                tracker_dial: None,
                peer_id: *b"-FX0001-seeder000001",
                addr: "mem:peer".into(),
                tracker_period: Duration::from_millis(100),
                choke_period: Duration::from_millis(50),
                keepalive_period: Duration::from_millis(200),
            },
            meta,
            file,
        )
    }

    fn run_download_test(runtime: RuntimeKind) {
        let net = MemNet::new();
        let (config, meta, file) = setup(&net, 200_000);
        let server = crate::ServerBuilder::new(config).runtime(runtime).spawn();
        let conn = net.connect("peer").unwrap();
        let got =
            client::download(Box::new(conn), &meta, *b"-FX0001-leecher00001", Some(3)).unwrap();
        assert_eq!(got, file, "downloaded file matches the seed");
        assert!(server.ctx.blocks_served.load(Ordering::Relaxed) > 0);
        assert!(server.ctx.keepalives_seen.load(Ordering::Relaxed) > 0);
        stop(server);
    }

    #[test]
    fn download_on_thread_pool() {
        run_download_test(RuntimeKind::ThreadPool { workers: 4 });
    }

    #[test]
    fn download_on_event_runtime() {
        run_download_test(RuntimeKind::event_driven_sharded(1, 4));
    }

    #[test]
    fn concurrent_downloads() {
        let net = MemNet::new();
        let (config, meta, file) = setup(&net, 150_000);
        let server = crate::ServerBuilder::new(config)
            .runtime(RuntimeKind::ThreadPool { workers: 8 })
            .spawn();
        let mut joins = Vec::new();
        for i in 0..6u8 {
            let net = net.clone();
            let meta = meta.clone();
            let file = file.clone();
            joins.push(std::thread::spawn(move || {
                let mut id = *b"-FX0001-leecher00000";
                id[19] = b'0' + i;
                let conn = net.connect("peer").unwrap();
                let got = client::download(Box::new(conn), &meta, id, Some(4)).unwrap();
                assert_eq!(got, file);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        stop(server);
    }

    #[test]
    fn tracker_announce_flow_runs() {
        let net = MemNet::new();
        let tracker = Tracker::new();
        let tl = net.listen("tracker").unwrap();
        tl.set_accept_timeout(Some(Duration::from_millis(50)));
        let t2 = tracker.clone();
        let tracker_thread = std::thread::spawn(move || {
            // Serve a few announce connections, then exit.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while std::time::Instant::now() < deadline {
                match tl.accept() {
                    Ok(mut conn) => {
                        let _ = t2.serve_conn(&mut *conn);
                    }
                    Err(_) => continue,
                }
            }
        });
        let (mut config, _meta, _file) = setup(&net, 64 * 1024);
        let net2 = net.clone();
        config.tracker_dial = Some(Box::new(move || {
            net2.connect("tracker")
                .ok()
                .map(|c| Box::new(c) as Box<dyn flux_net::Conn>)
        }));
        config.tracker_period = Duration::from_millis(60);
        let server = crate::ServerBuilder::new(config)
            .runtime(RuntimeKind::ThreadPool { workers: 2 })
            .spawn();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.ctx.announces.load(Ordering::Relaxed) == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            server.ctx.announces.load(Ordering::Relaxed) > 0,
            "peer announced to the tracker"
        );
        stop(server);
        tracker_thread.join().unwrap();
    }

    #[test]
    fn program_matches_figure7_shape() {
        let program = flux_core::compile(FLUX_SRC).unwrap();
        assert_eq!(program.flows.len(), 4, "Listen + 3 timers");
        // The famous error path must exist in the path table.
        let flow = program.flow_for_source("Listen").unwrap();
        let paths = flow.paths.enumerate(&flow.flat, &program.graph, 10_000);
        let error_path = paths.iter().any(|p| {
            p.nodes == vec!["GetClients", "SelectSockets", "CheckSockets"]
                && matches!(p.outcome, flux_core::EndKind::Errored { .. })
        });
        assert!(error_path, "CheckSockets -> ERROR path exists");
        let transfer_path = paths.iter().any(|p| {
            p.nodes
                == vec![
                    "GetClients",
                    "SelectSockets",
                    "CheckSockets",
                    "ReadMessage",
                    "Request",
                    "MessageDone",
                ]
        });
        assert!(transfer_path, "file-transfer path exists");
    }
}
