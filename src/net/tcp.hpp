#pragma once

/// \file tcp.hpp
/// Socket-backed implementation of the `Transport` seam: the two parties
/// run as two OS processes connected over TCP.
///
/// Wire format (normative spec: docs/PROTOCOL.md). After a fixed 8-byte
/// handshake in each direction, every `send_bytes` becomes one frame:
/// an 8-byte header (little-endian payload length, frame type, phase
/// tag) followed by the payload. The phase tag lets the *receiver*
/// attribute traffic to the sender's protocol phase, so each endpoint
/// reconstructs the full per-phase `ChannelStats` — bytes, messages and
/// flights bit-identical to the in-process `DuplexChannel` accounting
/// (only protocol payload is counted, never headers or the handshake).
///
/// Connection establishment is asymmetric (`listen` + `accept` on the
/// server, `connect` with a retry deadline on the client) but the
/// resulting `TcpTransport` endpoints are symmetric peers. Shutdown is
/// explicit: `close()` sends a kShutdown frame before closing the
/// socket, so the peer can distinguish a clean end-of-session from a
/// mid-protocol crash (abrupt EOF), and both throw `c2pi::Error` from a
/// pending `recv_bytes`.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/transport.hpp"

namespace c2pi::net {

/// Frame/handshake constants, shared with docs/PROTOCOL.md.
inline constexpr std::uint8_t kWireMagic[4] = {'C', '2', 'P', 'I'};
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHandshakeSize = 8;
inline constexpr std::size_t kFrameHeaderSize = 8;
/// Upper bound on a single frame's payload; a corrupt or hostile header
/// fails fast instead of triggering a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1U << 30;
/// Tighter bound for the session-bootstrap ARTIFACT frame: real
/// artifacts are a few hundred bytes, and the receiver allocates the
/// payload before the codec can reject it — don't let a hostile server
/// demand a gigabyte first.
inline constexpr std::uint32_t kMaxArtifactPayload = 1U << 20;

enum class FrameType : std::uint8_t {
    kData = 1,
    kShutdown = 2,
    kArtifact = 3,
    kBusy = 4,
    kKeys = 5,
};

/// Typed overload rejection: the server refused the session before it
/// began because its serving pool is saturated (BUSY frame,
/// docs/PROTOCOL.md §5). Distinct from Error so a client can tell "come
/// back later" apart from a protocol failure.
struct ServerBusy final : Error {
    ServerBusy() : Error("tcp recv: server is at capacity (BUSY frame) - retry later") {}
};

/// One party's endpoint of a TCP connection. Obtain via TcpListener
/// (server, party 0) or connect() (client, party 1); the constructor
/// performs the version/party handshake and enables TCP_NODELAY (the
/// protocols are ping-pong; Nagle would serialize every flight behind a
/// delayed ACK).
class TcpTransport final : public Transport {
public:
    /// Adopts a connected socket and runs the handshake, whose read is
    /// bounded by `handshake_timeout_ms` (an accepting server must not be
    /// wedged by a connected-but-silent peer; a connector must be allowed
    /// to wait out the server's accept queue, so connect() passes its
    /// caller's remaining deadline). Throws c2pi::Error on timeout, a
    /// magic/version mismatch, or if the peer claims the same party id.
    TcpTransport(int fd, int party_id, int handshake_timeout_ms = 10'000);
    ~TcpTransport() override;

    void send_bytes(std::span<const std::uint8_t> data) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override;
    /// Frame payload is read straight into `out` (resized, capacity
    /// reused) — no per-message allocation once the buffer has grown.
    void recv_bytes_into(std::vector<std::uint8_t>& out) override;
    [[nodiscard]] ChannelStats stats() const override;
    [[nodiscard]] WaitStats wait_stats() const override;

    /// Pipelined sends (docs/PROTOCOL.md §10): ON spawns a writer thread
    /// draining a bounded queue of pre-framed messages, so send_bytes
    /// copies the frame and returns while the NIC drains; OFF flushes the
    /// queue and joins the writer. Stats are recorded at enqueue time on
    /// the protocol thread, so ChannelStats — bytes, messages, flights —
    /// are bit-identical to the synchronous path. A writer-side socket
    /// failure is stored and rethrown from the next send/recv/flush on
    /// the protocol thread.
    void set_pipelined_sends(bool enabled) override;
    void flush_sends() override;

    /// Session bootstrap: the serialized model artifact travels in its
    /// own kArtifact frame, sent by the server immediately after the
    /// handshake and — like the handshake — NOT recorded in ChannelStats
    /// (docs/PROTOCOL.md §3). recv throws if the next frame is anything
    /// else: the artifact is the first thing on the wire, by spec.
    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override;

    /// Preprocessing key batches travel in kKeys frames: metered like
    /// DATA (a real deployment pays for key shipment) but always under
    /// Phase::kPreprocess, whatever phase the transport is in
    /// (docs/PROTOCOL.md §4).
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override;
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override;

    /// Overload rejection: a BUSY frame in place of the session's
    /// ARTIFACT frame (docs/PROTOCOL.md §5), so the peer's pending recv
    /// raises ServerBusy, then the goodbye frame and half-close without
    /// the drain. Skipping the drain is safe because the peer has sent
    /// nothing past the handshake we already read, and it keeps a
    /// rejection from stalling the accept loop on a slow peer.
    void refuse_busy() noexcept override;

    /// Abort a `recv_bytes` blocked longer than this with a typed
    /// RecvTimeout (0 restores blocking forever). Protects servers from
    /// stalled peers. This is the *steady-state* deadline; see
    /// arm_handshake_deadline for the stricter session-bootstrap one.
    void set_recv_timeout(int milliseconds) override;

    /// Arm a one-shot, shorter deadline covering the session-bootstrap
    /// reads: it applies immediately and stays in force until the first
    /// DATA frame arrives from the peer, at which point the transport
    /// reverts to the steady set_recv_timeout value on its own. A
    /// connected-but-silent peer — a port scanner, a client that died
    /// right after the handshake — is then shed in `milliseconds`, not
    /// pinned against the (much longer) protocol recv timeout
    /// (docs/PROTOCOL.md §9). Call after set_recv_timeout.
    void arm_handshake_deadline(int milliseconds) override;

    /// Hard abort: close the socket with NO goodbye frame, so the peer
    /// observes a mid-protocol EOF (PeerClosed) — the shape of a crashed
    /// process. Used by the fault-injection layer; idempotent with
    /// close().
    void abort_connection() noexcept override;

    /// Graceful shutdown: send a kShutdown frame, half-close, drain the
    /// peer's remaining bytes (bounded — a hostile streamer cannot pin
    /// us here), close. Idempotent; also run (with errors swallowed) by
    /// the destructor.
    void close() noexcept override;
    [[nodiscard]] bool is_open() const { return fd_ >= 0; }

private:
    void send_frame(FrameType type, Phase phase, std::span<const std::uint8_t> payload);
    /// Read the next frame into `out`, requiring its type to be
    /// `expected`; returns the sender's phase tag. Shutdown frames and
    /// malformed headers raise typed errors for both callers.
    Phase recv_frame_into(std::vector<std::uint8_t>& out, FrameType expected);

    /// Apply an SO_RCVTIMEO in milliseconds (0 = block forever).
    void apply_recv_timeout(int milliseconds);

    /// Queue one pre-framed buffer for the writer thread, blocking (and
    /// charging WaitStats) while the queue is over its byte bound.
    void enqueue_frame(std::vector<std::uint8_t> frame, Phase phase);
    /// Drain the queue through the writer, then join it. Rethrows a
    /// pending writer error unless `swallow_errors` (the close path).
    void stop_writer(bool swallow_errors) noexcept(false);
    void writer_loop();
    void rethrow_writer_error();

    int fd_ = -1;
    bool peer_shutdown_ = false;
    int steady_recv_timeout_ms_ = 0;     ///< set_recv_timeout's value
    bool handshake_deadline_armed_ = false;  ///< until the first DATA frame
    mutable std::mutex stats_mutex_;
    ChannelStats stats_;
    WaitStats waits_;  ///< guarded by stats_mutex_

    // -- pipelined send path (protocol thread + one writer thread) -----------
    bool pipelined_ = false;  ///< protocol-thread-only flag
    std::thread writer_;
    std::mutex send_mutex_;
    std::condition_variable send_cv_;    ///< wakes the writer
    std::condition_variable drain_cv_;   ///< wakes enqueuers / flush
    std::deque<std::vector<std::uint8_t>> send_queue_;
    std::size_t queued_send_bytes_ = 0;
    bool writer_stop_ = false;
    bool writer_busy_ = false;  ///< a frame is popped but not yet written
    std::exception_ptr writer_error_;
};

/// Listening socket for the server party. Binds immediately (port 0 asks
/// the OS for an ephemeral port — see port()); SO_REUSEADDR is set so
/// quick restarts don't trip TIME_WAIT.
class TcpListener {
public:
    /// Listen on `host:port`. Defaults to loopback; use "0.0.0.0" to
    /// accept remote clients.
    explicit TcpListener(std::uint16_t port, const std::string& host = "127.0.0.1");
    ~TcpListener();

    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    /// The actual bound port (resolves port 0).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Accept one client and complete the handshake as party 0.
    /// `timeout_ms` < 0 blocks indefinitely; on timeout throws c2pi::Error.
    [[nodiscard]] std::unique_ptr<TcpTransport> accept(int timeout_ms = -1);

    /// Like accept(), but a timeout returns nullptr instead of throwing —
    /// the shape an accept loop wants when it must periodically check a
    /// stop flag (pi_server's serve-forever mode under SIGINT/SIGTERM).
    [[nodiscard]] std::unique_ptr<TcpTransport> try_accept(int timeout_ms);

    void close() noexcept;

private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/// Connect to a listening server and complete the handshake as party 1.
/// Retries refused connections until `timeout_ms` elapses, so a client
/// started moments before its server still connects.
[[nodiscard]] std::unique_ptr<TcpTransport> connect(const std::string& host, std::uint16_t port,
                                                    int timeout_ms = 5000);

}  // namespace c2pi::net
