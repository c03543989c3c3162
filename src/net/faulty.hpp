#pragma once

/// \file faulty.hpp
/// Deterministic fault injection over any `Transport`.
///
/// `FaultyTransport` is a decorator in the mold of the tests'
/// RecordingTransport: it forwards every call to an inner transport, but
/// consults a `FaultSchedule` first and — at scheduled operation indices
/// — delays, stalls, truncates, corrupts, or kills the connection. The
/// schedule is plain data (kind, op filter, index, parameter), so every
/// chaos run is replayable bit-for-bit: the same schedule against the
/// same protocol trace fires the same fault at the same frame.
///
/// The injection point is *above* the framing layer, which fixes what
/// each fault looks like to the peer:
///   - kDisconnect  -> inner abort_connection(): raw EOF / reset, the
///                     shape of a crashed process (PeerClosed).
///   - kTruncate    -> a prefix of the payload sent as a *valid* frame:
///                     transport-clean, rejected by the codec or a size
///                     check above it (protocol violation).
///   - kCorrupt     -> one payload byte flipped: under a semi-honest
///                     protocol this may be *undetectable* (random ring
///                     data decodes fine) — chaos tests assert
///                     containment, not a specific failure class.
///   - kStall       -> a long sleep before the op: the peer's recv
///                     deadline fires (RecvTimeout).
///   - kDelay       -> a short sleep: latency jitter, everything still
///                     succeeds.
///
/// The op counter covers every transport call (protocol sends/recvs,
/// artifact and key shipment) in program order, so a schedule addresses
/// "the 7th thing this party does on the wire" regardless of which
/// method that turns out to be. Run a schedule-free pass first and read
/// `ops_seen()` to size a sweep. The serving-lifecycle calls (deadlines,
/// close, refuse_busy) are not ops: they pass straight through, so a
/// pool can serve a decorated transport exactly like the inner one.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "net/transport.hpp"

namespace c2pi::net {

enum class FaultKind : std::uint8_t {
    kDelay = 0,       ///< sleep `param_ms`, then proceed normally
    kStall = 1,       ///< same, but sized to outlive the peer's deadline
    kDisconnect = 2,  ///< abort the connection; param = payload bytes to leak first
    kTruncate = 3,    ///< send only the first `param` payload bytes (valid frame)
    kCorrupt = 4,     ///< XOR-flip payload byte `param % size`
};

/// Which transport operations a fault may fire on.
enum class FaultOp : std::uint8_t { kSend = 0, kRecv = 1, kAny = 2 };

/// One scheduled fault: fires when the transport's op counter reaches
/// `at_op` (0-based, counting every send/recv/artifact/keys call) and
/// the op's direction matches `op`.
struct Fault {
    FaultKind kind = FaultKind::kDelay;
    FaultOp op = FaultOp::kAny;
    std::size_t at_op = 0;
    std::uint32_t param = 0;  ///< ms for delay/stall; bytes for disconnect/truncate; index for corrupt
};

/// Raised on the *injecting* side when a scheduled disconnect fires, so
/// its own session loop stops instead of talking into a dead socket.
/// Derives Error, not PeerClosed: the injector is the cause, not the
/// victim.
struct FaultInjected : Error {
    using Error::Error;
};

/// A replayable list of faults. Plain data; order does not matter
/// (matching is by op index). `from_seed` derives a schedule
/// deterministically so chaos sweeps can be reproduced from one integer.
class FaultSchedule {
public:
    FaultSchedule() = default;
    explicit FaultSchedule(std::vector<Fault> faults) : faults_(std::move(faults)) {}

    FaultSchedule& add(Fault f) {
        faults_.push_back(f);
        return *this;
    }

    [[nodiscard]] const std::vector<Fault>& faults() const { return faults_; }
    [[nodiscard]] bool empty() const { return faults_.empty(); }

    /// First fault scheduled for (op index, direction), if any.
    [[nodiscard]] std::optional<Fault> match(std::size_t op_index, FaultOp direction) const {
        for (const Fault& f : faults_) {
            if (f.at_op != op_index) continue;
            if (f.op == FaultOp::kAny || f.op == direction) return f;
        }
        return std::nullopt;
    }

    /// One seeded fault somewhere in `[0, total_ops)`: kind and position
    /// are mixed out of `seed` (splitmix64), so a sweep over seeds covers
    /// the kind x position grid without hand-enumerating it and any
    /// failing seed replays exactly.
    static FaultSchedule from_seed(std::uint64_t seed, std::size_t total_ops) {
        require(total_ops > 0, "fault schedule needs at least one op to target");
        auto mix = [](std::uint64_t& s) {
            s += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = s;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return z ^ (z >> 31);
        };
        std::uint64_t s = seed;
        Fault f;
        // Disconnect / truncate / corrupt only — delay and stall are
        // timing faults with no interesting per-position behavior.
        constexpr FaultKind kKinds[] = {FaultKind::kDisconnect, FaultKind::kTruncate,
                                        FaultKind::kCorrupt};
        f.kind = kKinds[mix(s) % 3];
        f.at_op = static_cast<std::size_t>(mix(s) % total_ops);
        f.param = static_cast<std::uint32_t>(mix(s) % 8);
        return FaultSchedule({f});
    }

private:
    std::vector<Fault> faults_;
};

/// Fault-injecting decorator around any Transport. Non-owning: the
/// inner transport must outlive it. Phase is forwarded before every
/// send (set_phase is non-virtual, per the RecordingTransport idiom),
/// so stats attribution through the decorator is unchanged.
class FaultyTransport final : public Transport {
public:
    FaultyTransport(Transport& inner, FaultSchedule schedule)
        : Transport(inner.party_id()), inner_(&inner), schedule_(std::move(schedule)) {}

    /// Ops executed so far — run once with an empty schedule to learn
    /// how many ops a protocol trace has, then sweep `at_op` over it.
    [[nodiscard]] std::size_t ops_seen() const { return next_op_; }

    void send_bytes(std::span<const std::uint8_t> data) override {
        inner_->set_phase(phase_);
        const auto fault = take(FaultOp::kSend);
        if (!fault) {
            inner_->send_bytes(data);
            return;
        }
        send_with_fault(*fault, data,
                        [&](std::span<const std::uint8_t> d) { inner_->send_bytes(d); });
    }

    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override {
        std::vector<std::uint8_t> out;
        recv_bytes_into(out);
        return out;
    }

    void recv_bytes_into(std::vector<std::uint8_t>& out) override {
        const auto fault = take(FaultOp::kRecv);
        if (fault) apply_pre_recv(*fault);
        inner_->recv_bytes_into(out);
        if (fault && fault->kind == FaultKind::kCorrupt && !out.empty())
            out[fault->param % out.size()] ^= 0x80;
    }

    [[nodiscard]] ChannelStats stats() const override { return inner_->stats(); }
    [[nodiscard]] WaitStats wait_stats() const override { return inner_->wait_stats(); }

    /// Faults are applied on the protocol thread at enqueue time, above
    /// the inner transport's send queue, so a flush only passes through.
    void flush_sends() override { inner_->flush_sends(); }

    void abort_connection() noexcept override { inner_->abort_connection(); }

    void set_recv_timeout(int milliseconds) override { inner_->set_recv_timeout(milliseconds); }
    void arm_handshake_deadline(int milliseconds) override {
        inner_->arm_handshake_deadline(milliseconds);
    }
    void close() noexcept override { inner_->close(); }
    void refuse_busy() noexcept override { inner_->refuse_busy(); }

    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override {
        inner_->set_phase(phase_);
        const auto fault = take(FaultOp::kSend);
        if (!fault) {
            inner_->send_artifact_bytes(bytes);
            return;
        }
        send_with_fault(*fault, bytes,
                        [&](std::span<const std::uint8_t> d) { inner_->send_artifact_bytes(d); });
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override {
        const auto fault = take(FaultOp::kRecv);
        if (fault) apply_pre_recv(*fault);
        auto out = inner_->recv_artifact_bytes();
        if (fault && fault->kind == FaultKind::kCorrupt && !out.empty())
            out[fault->param % out.size()] ^= 0x80;
        return out;
    }

    void send_keys_bytes(std::span<const std::uint8_t> bytes) override {
        inner_->set_phase(phase_);
        const auto fault = take(FaultOp::kSend);
        if (!fault) {
            inner_->send_keys_bytes(bytes);
            return;
        }
        send_with_fault(*fault, bytes,
                        [&](std::span<const std::uint8_t> d) { inner_->send_keys_bytes(d); });
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override {
        const auto fault = take(FaultOp::kRecv);
        if (fault) apply_pre_recv(*fault);
        auto out = inner_->recv_keys_bytes();
        if (fault && fault->kind == FaultKind::kCorrupt && !out.empty())
            out[fault->param % out.size()] ^= 0x80;
        return out;
    }

private:
    [[nodiscard]] std::optional<Fault> take(FaultOp direction) {
        return schedule_.match(next_op_++, direction);
    }

    static void sleep_ms(std::uint32_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }

    [[noreturn]] void disconnect_now() {
        inner_->abort_connection();
        throw FaultInjected("fault injection: scheduled disconnect fired");
    }

    void apply_pre_recv(const Fault& fault) {
        switch (fault.kind) {
            case FaultKind::kDelay:
            case FaultKind::kStall:
                sleep_ms(fault.param);
                return;
            case FaultKind::kDisconnect:
                disconnect_now();
            case FaultKind::kTruncate:  // truncation is a send-side shape; no-op on recv
            case FaultKind::kCorrupt:   // applied after the payload arrives
                return;
        }
    }

    template <typename SendFn>
    void send_with_fault(const Fault& fault, std::span<const std::uint8_t> data, SendFn&& send) {
        switch (fault.kind) {
            case FaultKind::kDelay:
            case FaultKind::kStall:
                sleep_ms(fault.param);
                send(data);
                return;
            case FaultKind::kDisconnect:
                // Leak the first `param` bytes as a (short, valid) frame
                // before dying, so "crashed mid-send" is reachable too.
                // The flush hands it to the OS before the abort drops
                // the inner transport's send queue.
                if (fault.param > 0 && !data.empty()) {
                    send(data.first(std::min<std::size_t>(fault.param, data.size())));
                    inner_->flush_sends();
                }
                disconnect_now();
            case FaultKind::kTruncate:
                send(data.first(std::min<std::size_t>(fault.param, data.size())));
                return;
            case FaultKind::kCorrupt: {
                scratch_.assign(data.begin(), data.end());
                if (!scratch_.empty()) scratch_[fault.param % scratch_.size()] ^= 0x80;
                send(scratch_);
                return;
            }
        }
    }

    Transport* inner_;
    FaultSchedule schedule_;
    std::size_t next_op_ = 0;
    std::vector<std::uint8_t> scratch_;
};

}  // namespace c2pi::net
