#pragma once

/// \file transport.hpp
/// The party-to-party transport seam shared by every protocol layer.
///
/// A `Transport` is one party's endpoint of a two-party connection. The
/// protocol code (OT extension, HE linear layers, the PI sessions) only
/// ever sees this interface, so the same session runs unchanged over the
/// in-process `DuplexChannel` (channel.hpp) or a real TCP socket
/// (tcp.hpp).
///
/// Every implementation keeps the exact same traffic accounting in
/// `ChannelStats`: payload bytes and message counts per (phase, sender),
/// and the number of message *flights* (maximal runs of messages in one
/// direction), which is what round-trip latency scales with. The
/// deterministic LAN/WAN latency model in cost_model.hpp turns (measured
/// compute, bytes, flights) into the latencies reported in Table II
/// (DESIGN.md §4, substitution 5). Transport-level overhead — frame
/// headers, handshakes — is deliberately *not* counted, so the stats are
/// comparable across transports and match the analytic cost model.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace c2pi::net {

/// Protocol phase tag for traffic accounting (Delphi separates an input-
/// independent offline phase; Cheetah is online-only). kPreprocess is the
/// per-session FSS key-shipment phase: input-independent like kOffline,
/// but kept in its own bucket so key-batch bytes never blur into the
/// offline HE traffic the paper's tables report.
enum class Phase { kOffline = 0, kOnline = 1, kPreprocess = 2 };
inline constexpr int kNumPhases = 3;

// -- typed transport failures ------------------------------------------------
// A serving pool must tell a dying client apart from a hostile one and
// from its own bugs (docs/PROTOCOL.md §9, "Failure semantics"), so the
// transport layer reports its three externally-caused failure shapes as
// distinct types. Everything else (malformed frames, codec violations)
// stays a plain c2pi::Error.

/// The peer went away: clean SHUTDOWN frame mid-protocol, raw EOF, a
/// connection reset, or EPIPE on send. From a server's point of view
/// this is a client abort — common under WAN serving, never fatal to
/// the worker.
struct PeerClosed : Error {
    using Error::Error;
};

/// A blocking receive exceeded its deadline (set_recv_timeout or the
/// handshake deadline): the peer is connected but silent.
struct RecvTimeout : Error {
    using Error::Error;
};

/// Could not establish the connection before the caller's deadline
/// (nobody listening, SYNs dropped, network unreachable). Typed so a
/// client retry policy can treat it like a BUSY rejection: nothing
/// secret has been sent yet, so retrying is always safe.
struct ConnectFailed : Error {
    using Error::Error;
};

/// Traffic counters for one two-party connection. For the in-process
/// channel the two parties share one instance; each TCP endpoint keeps
/// its own, and the two views are identical because both parties observe
/// every message of the (sequential) protocol in the same order.
struct ChannelStats {
    std::uint64_t bytes[kNumPhases][2] = {};     ///< [phase][sender]
    std::uint64_t messages[kNumPhases][2] = {};  ///< [phase][sender]
    std::uint64_t flights[kNumPhases] = {};      ///< direction-change runs per phase
    int last_sender = -1;                        ///< for flight counting

    /// Account one message: payload bytes under (phase, sender), and a
    /// new flight — charged to the phase of the message that opens it —
    /// whenever the direction turns over.
    void record(int sender, Phase phase, std::size_t payload_bytes) {
        const int p = static_cast<int>(phase);
        bytes[p][sender] += payload_bytes;
        messages[p][sender] += 1;
        if (last_sender != sender) {
            flights[p] += 1;
            last_sender = sender;
        }
    }

    [[nodiscard]] std::uint64_t total_bytes() const {
        std::uint64_t total = 0;
        for (int p = 0; p < kNumPhases; ++p) total += bytes[p][0] + bytes[p][1];
        return total;
    }
    [[nodiscard]] std::uint64_t phase_bytes(Phase p) const {
        return bytes[static_cast<int>(p)][0] + bytes[static_cast<int>(p)][1];
    }
    [[nodiscard]] std::uint64_t phase_flights(Phase p) const {
        return flights[static_cast<int>(p)];
    }
    [[nodiscard]] std::uint64_t total_flights() const {
        std::uint64_t total = 0;
        for (int p = 0; p < kNumPhases; ++p) total += flights[p];
        return total;
    }

    friend bool operator==(const ChannelStats&, const ChannelStats&) = default;
};

/// Seconds an endpoint spent *blocked on the network*, per phase and
/// direction: waiting for a peer message to arrive (recv), or waiting
/// for the transport to accept outgoing bytes (a full send queue, a
/// flush_sends, or a KEYS frame's write, which TcpTransport makes on the
/// calling thread and charges to kPreprocess). Kept OUT of ChannelStats
/// on purpose — wall time is nondeterministic, and ChannelStats equality
/// is what the wire-parity tests pin. Subtracting the wait from a
/// phase's wall time yields its compute time, which is how
/// pi_server/pi_client report the compute/communication overlap of the
/// pipelined online phase.
struct WaitStats {
    double send_seconds[kNumPhases] = {};  ///< blocked handing bytes to the transport
    double recv_seconds[kNumPhases] = {};  ///< blocked waiting for the peer

    void add_send(Phase phase, double seconds) {
        send_seconds[static_cast<int>(phase)] += seconds;
    }
    void add_recv(Phase phase, double seconds) {
        recv_seconds[static_cast<int>(phase)] += seconds;
    }
    [[nodiscard]] double phase_seconds(Phase p) const {
        return send_seconds[static_cast<int>(p)] + recv_seconds[static_cast<int>(p)];
    }
    [[nodiscard]] double total_seconds() const {
        double total = 0.0;
        for (int p = 0; p < kNumPhases; ++p) total += send_seconds[p] + recv_seconds[p];
        return total;
    }
};

/// A party's endpoint of a two-party connection. party_id is 0 (server)
/// or 1 (client) by convention throughout the repo.
///
/// Message semantics (identical for every implementation): `send_bytes`
/// delivers one framed message; `recv_bytes` returns exactly one message,
/// in FIFO order, blocking until it arrives. Sizes are preserved — a
/// 7-byte send arrives as a 7-byte message, never split or coalesced.
class Transport {
public:
    explicit Transport(int party_id) : party_(party_id) {
        require(party_id == 0 || party_id == 1, "party_id must be 0 or 1");
    }
    virtual ~Transport() = default;

    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;

    [[nodiscard]] int party_id() const { return party_; }

    /// Phase under which subsequent sends are accounted (and, for framed
    /// transports, tagged on the wire so the receiver attributes them to
    /// the same phase).
    void set_phase(Phase phase) { phase_ = phase; }
    [[nodiscard]] Phase phase() const { return phase_; }

    /// Send one message to the peer.
    virtual void send_bytes(std::span<const std::uint8_t> data) = 0;
    /// Block until the peer's next message arrives and return it.
    [[nodiscard]] virtual std::vector<std::uint8_t> recv_bytes() = 0;
    /// Receive one message into a caller-owned buffer, reusing its
    /// capacity where the implementation can (TcpTransport reads the
    /// frame payload straight into it). Protocols that receive many
    /// same-sized messages (HE ciphertexts) pass a per-session scratch
    /// buffer to amortize the allocation.
    virtual void recv_bytes_into(std::vector<std::uint8_t>& out) { out = recv_bytes(); }
    /// Snapshot of this connection's traffic accounting.
    [[nodiscard]] virtual ChannelStats stats() const = 0;
    /// Snapshot of this endpoint's blocked-on-network time. Defaults to
    /// zero for transports that do not measure it (test recorders).
    [[nodiscard]] virtual WaitStats wait_stats() const { return {}; }

    // -- pipelined sends -----------------------------------------------------
    /// A no-op that nothing in the library calls: sends are always
    /// pipelined (docs/PROTOCOL.md §10). Kept only because
    /// servebench/serving/tracing.hpp's TracingTransport overrides it.
    virtual void set_pipelined_sends(bool enabled) { (void)enabled; }
    /// Block until every queued send has been handed to the OS,
    /// rethrowing any asynchronous send failure on the calling thread.
    /// A no-op for transports whose sends never queue (the in-process
    /// channel).
    virtual void flush_sends() {}

    /// Hard abort: tear the connection down *without* the goodbye
    /// sequence, so the peer observes an abrupt end (PeerClosed) rather
    /// than a clean shutdown — exactly what a crashed process or a cut
    /// link looks like. The fault-injection layer (faulty.hpp) uses this
    /// to simulate mid-protocol disconnects; implementations without a
    /// connection to break may leave it a no-op.
    virtual void abort_connection() noexcept {}

    // -- serving lifecycle ---------------------------------------------------
    // What a serving pool does to every connection it serves, whatever the
    // transport. The defaults fit transports with no deadlines to arm and
    // no goodbye to send.

    /// Abort a blocked receive after this long with a typed RecvTimeout
    /// (0 = block forever). Protects a server from a stalled peer.
    virtual void set_recv_timeout(int milliseconds) { (void)milliseconds; }
    /// One-shot, stricter deadline for the session-bootstrap reads; the
    /// transport reverts to the set_recv_timeout value at the peer's
    /// first protocol message. Call after set_recv_timeout.
    virtual void arm_handshake_deadline(int milliseconds) { (void)milliseconds; }
    /// Graceful end of the session: the peer reads every message already
    /// sent, then its next receive raises PeerClosed. Idempotent.
    virtual void close() noexcept {}
    /// Overload refusal before the session starts: tell the peer to come
    /// back later, then end the connection. The default is an abrupt
    /// disconnect; TcpTransport sends the typed BUSY frame.
    virtual void refuse_busy() noexcept { abort_connection(); }

    // -- session bootstrap ---------------------------------------------------
    /// Ship the serialized public model artifact to the peer, before any
    /// protocol message. Artifact bytes are session *setup*, not protocol
    /// traffic: like the handshake they are deliberately NOT recorded in
    /// ChannelStats, so the shipped-artifact and locally-compiled client
    /// paths keep identical per-phase stats (docs/PROTOCOL.md §3).
    /// Implemented by InProcTransport and TcpTransport; decorators and
    /// other transports refuse by default.
    virtual void send_artifact_bytes(std::span<const std::uint8_t> bytes) {
        (void)bytes;
        fail("this transport cannot ship a model artifact");
    }
    /// Receive the peer's artifact frame; must be called before the first
    /// protocol recv on transports whose peer ships one.
    [[nodiscard]] virtual std::vector<std::uint8_t> recv_artifact_bytes() {
        fail("this transport cannot receive a model artifact");
    }

    // -- preprocessing material ----------------------------------------------
    /// Ship one batch of input-independent correlated randomness (FSS key
    /// halves) to the peer. Unlike artifact shipping these bytes ARE
    /// protocol traffic — a real deployment pays for them — but they are
    /// always accounted under Phase::kPreprocess regardless of the
    /// transport's current phase, so online nonlinear bytes stay clean
    /// (docs/PROTOCOL.md §4). Implemented by InProcTransport and
    /// TcpTransport; other transports refuse by default.
    virtual void send_keys_bytes(std::span<const std::uint8_t> bytes) {
        (void)bytes;
        fail("this transport cannot ship preprocessing key material");
    }
    /// Receive one preprocessing key batch from the peer.
    [[nodiscard]] virtual std::vector<std::uint8_t> recv_keys_bytes() {
        fail("this transport cannot receive preprocessing key material");
    }

    // -- typed helpers -------------------------------------------------------
    void send_u64s(std::span<const std::uint64_t> values) {
        send_bytes(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(values.data()), values.size() * 8));
    }

    [[nodiscard]] std::vector<std::uint64_t> recv_u64s() {
        const auto raw = recv_bytes();
        require(raw.size() % 8 == 0, "recv_u64s: payload not a multiple of 8 bytes");
        std::vector<std::uint64_t> values(raw.size() / 8);
        std::memcpy(values.data(), raw.data(), raw.size());
        return values;
    }

    /// Like recv_u64s, but stages the frame through a caller-owned byte
    /// scratch (recv_bytes_into) so steady-state reveal rounds allocate
    /// nothing once the scratch and output have warmed up.
    void recv_u64s_into(std::vector<std::uint8_t>& scratch, std::vector<std::uint64_t>& values) {
        recv_bytes_into(scratch);
        require(scratch.size() % 8 == 0, "recv_u64s: payload not a multiple of 8 bytes");
        values.resize(scratch.size() / 8);
        std::memcpy(values.data(), scratch.data(), scratch.size());
    }

    void send_u64(std::uint64_t v) { send_u64s(std::span<const std::uint64_t>(&v, 1)); }

    [[nodiscard]] std::uint64_t recv_u64() {
        const auto v = recv_u64s();
        require(v.size() == 1, "expected a single u64");
        return v[0];
    }

protected:
    int party_;
    Phase phase_ = Phase::kOnline;
};

}  // namespace c2pi::net
