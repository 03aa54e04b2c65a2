//! # flux-net — network substrate for the Flux servers
//!
//! The paper's servers sit on POSIX sockets; this crate abstracts the
//! transport behind [`Conn`]/[`Listener`]/[`Datagram`] traits and the
//! readiness machinery behind a layered, swappable stack:
//!
//! * **mem** — a hermetic in-memory transport (duplex pipes, a listener
//!   registry, datagram sockets) with optional aggregate link shaping,
//!   so benchmarks are reproducible and can exhibit network saturation;
//! * **tcp** — real TCP/UDP over `std::net` for examples and interop;
//! * **driver** — a readiness multiplexer ([`ConnDriver`]) that turns
//!   accepts, per-connection readability and asynchronous write
//!   completions into one event stream, which Flux source nodes consume
//!   (the paper's select loop). [`ConnDriver::submit_write`] queues
//!   response bytes without blocking; `WriteDone`/`WriteFailed` events
//!   report completion. Construction goes through [`NetConfig`]
//!   (backend choice, output-buffer bound, event-poll timeout) —
//!   servers reach it via `flux_servers::ServerBuilder`;
//! * **reactor** — the single multiplexer thread behind the driver:
//!   every registered TCP socket carries read/write *interest*, output
//!   buffers drain on writability instead of parking an I/O worker in
//!   `send(2)`, and the fd-reuse (generation) and shutdown invariants
//!   are enforced here once, above the backend;
//! * **poller** — the syscall-facing core, behind the [`Poller`] trait
//!   (`add`/`modify`/`delete`/`wait` over interest-tagged fds): a
//!   portable `poll(2)` backend (interest maintained incrementally, so
//!   a wait costs O(changes) in bookkeeping, O(watched) only in the
//!   kernel scan poll(2) inherently pays), a raw-FFI `epoll(7)`
//!   backend (O(ready) per wakeup, one-shot re-arm), the Linux
//!   default, and a raw-FFI `io_uring` backend in readiness mode (see
//!   below). `FLUX_POLLER=poll|epoll|uring` selects at runtime; all
//!   three pass the same conformance suite in `tests/`. A kqueue
//!   backend would slot in behind the same four methods.
//!
//! ## io_uring: readiness vs completion mode
//!
//! io_uring supports two ways of doing network I/O, and the
//! [`poller::UringPoller`] backend deliberately implements only the
//! first:
//!
//! * **Readiness mode** (this backend): each interest arm is an
//!   `IORING_OP_POLL_ADD` submission — oneshot by default, which *is*
//!   the [`Poller`] trait's one-shot contract — and the actual
//!   `read(2)`/`write(2)` calls stay where they are, in the reactor
//!   and driver. The win is pure syscall-count: `add`/`modify`/
//!   `delete` build SQEs locally and [`Poller::wait`] flushes the
//!   whole batch *and* collects completions in **one**
//!   `io_uring_enter`. That is the batching invariant: a round that
//!   (re-)arms K connections costs 1 syscall where epoll pays K
//!   `epoll_ctl`s plus an `epoll_wait` — and one-shot re-arm makes K
//!   proportional to the ready set every round, so the saving scales
//!   with load. Because the trait contract is unchanged, the reactor's
//!   generation/liveness invariants and the whole conformance suite
//!   apply verbatim.
//! * **Completion mode** (the recorded follow-on): submit
//!   `IORING_OP_RECV`/`IORING_OP_SEND` and let the kernel move the
//!   bytes, eliminating the read/write syscalls too. That changes
//!   buffer ownership (the kernel holds them while ops are in flight)
//!   and so cannot hide behind the readiness-shaped `Poller` trait —
//!   it needs a driver-level seam. The SQ batching machinery this
//!   backend introduces (`wait` flushing a pending submission batch)
//!   is the foundation it will reuse.
//!
//! io_uring availability varies (pre-5.1 kernels lack it; seccomp
//!  policies in container runtimes commonly deny it), so `uring` is
//! opt-in (`FLUX_POLLER=uring` or `NetConfig.backend`) behind a
//! construction-time capability probe: if real ring setup fails the
//! driver comes up on epoll, and the substitution is *reported* —
//! [`ConnDriver::poller_backend`] names the resolved backend and
//! [`DriverCounters::poller_fallbacks`] counts the fallback — so a
//! bench or CI leg can refuse to attribute uring numbers to an epoll
//! run. [`poller::uring_available`] packages the probe for harnesses.
//!
//! ## The allocation-free hot path (slabs, batches, pools)
//!
//! The steady-state event path — socket ready → event delivered → flow
//! dispatched → response enqueued — performs no hashing, no global
//! lock and no heap allocation:
//!
//! * **Slab tables.** A [`Token`] encodes `(slot, generation)`
//!   ([`token_slot`]/[`token_gen`]). The driver's connection table is a
//!   slab of per-slot locks (no `Mutex<HashMap>`), and the reactor's
//!   watch table, fd map and liveness table are plain vectors indexed
//!   by slot and fd. The generation check — one atomic load against a
//!   per-slot cell — subsumes the old liveness `HashMap`: a stale
//!   token can never observe the slot's next tenant, which is the
//!   fd-reuse safety invariant PR 2 introduced, now O(1) and lock-free
//!   on the delivery path.
//! * **Batched delivery.** One backend `wait` round yields a batch of
//!   ready fds; the reactor ships the whole round as a single recycled
//!   `Vec<DriverEvent>` and consumers drain it via
//!   [`ConnDriver::next_events`] — one channel transfer and (in the
//!   runtime) one shard-queue lock per round instead of per event.
//! * **Buffer pooling.** Response payloads are serialized into buffers
//!   checked out of a bounded [`pool::BytePool`]
//!   ([`ConnDriver::take_write_buf`]/[`ConnDriver::submit_write_buf`])
//!   and recycled after the transport takes the bytes; per-connection
//!   read scratch ([`ConnDriver::take_read_buf`]) is reused across all
//!   requests on a keep-alive connection.
//! * **Shared fan-out payloads.** Multicast results are encoded once,
//!   sealed into a refcounted [`pool::SharedPayload`]
//!   ([`ConnDriver::seal_write_buf`]) and submitted to every
//!   subscriber via [`ConnDriver::submit_write_shared`]. A blocked
//!   connection buffers a *reference* in its segment-queue
//!   [`pool::OutBuf`], not a copy, and the buffer returns to the pool
//!   exactly once when the last drain (or teardown) releases it. A
//!   subscriber whose output buffer would exceed the configured bound
//!   is evicted (slow-consumer policy) rather than buffering without
//!   limit.
//!
//! On multi-core hosts the reactor thread pins itself to a core
//! ([`affinity`]; opt out with `FLUX_PIN=0`). The runtime pins its
//! dispatcher shards through the same module.
//!
//! ## Overload invariants
//!
//! Edge admission lives here, in the [`ConnDriver`], in front of the
//! runtime's shard-queue depth caps (see `flux-runtime`'s "Overload
//! invariants" docs for the shedding layer above):
//!
//! * **Accept governing.** [`NetConfig::max_conns`] bounds live
//!   connections — past it an accepted socket is closed immediately
//!   (peers fail fast instead of parking in a backlog the server will
//!   never drain) — and [`NetConfig::accept_rate`] token-buckets the
//!   accept loop, *pacing* admission (the socket waits for a token)
//!   rather than rejecting. Both are counted
//!   ([`DriverCounters::accepts_governed`] vs
//!   [`DriverCounters::accepts_admitted`]), so `admitted + governed`
//!   always reconciles with accepts observed.
//! * **Idle and slow-loris reaping.** With [`NetConfig::idle_timeout`]
//!   set, every slot carries a *progress* stamp refreshed only by
//!   **application-level progress** — a complete parsed request or a
//!   successful response drain, via [`ConnDriver::mark_progress`] —
//!   never by raw readable bytes, so a peer trickling one header byte
//!   per second is reaped on schedule. The sweep
//!   ([`ConnDriver::reap_idle`]) runs off the reactor's wait loop
//!   (bounded cadence, CAS-deduped), skips connections with writes in
//!   flight, and releases the slab slot, its buffers and the epoll
//!   watch in one pass; `EMFILE`/`ENFILE` on accept triggers an
//!   immediate sweep before backing off.
//! * **Backpressure is visible before it is fatal.**
//!   [`DriverCounters::writes_deferred`] counts submissions that
//!   queued behind existing output — the early-warning signal — while
//!   the existing bound still evicts the slow consumer when the buffer
//!   limit is hit.

pub mod affinity;
pub mod driver;
pub mod mem;
#[cfg(unix)]
pub mod poller;
pub mod pool;
pub mod reactor;
pub mod shaper;
pub mod tcp;
pub mod traits;

pub use driver::{
    token_gen, token_slot, ConnDriver, DriverCounters, DriverEvent, NetConfig, SharedConn, Token,
};
pub use mem::{MemConn, MemDatagram, MemListener, MemNet};
#[cfg(unix)]
pub use poller::{
    create_poller, uring_available, Interest, PollPoller, Poller, PollerBackend, PollerEvent,
};
#[cfg(target_os = "linux")]
pub use poller::{EpollPoller, UringPoller};
pub use pool::{BytePool, OutBuf, SharedPayload};
#[cfg(unix)]
pub use reactor::Reactor;
pub use shaper::Shaper;
pub use tcp::{TcpAcceptor, TcpConn, UdpDatagram};
pub use traits::{read_exact_timeout, Conn, Datagram, Listener, WriteProgress};
