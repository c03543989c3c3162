#pragma once

/// \file channel.hpp
/// In-process two-party transport with exact traffic accounting.
///
/// The two protocol parties run on two threads connected by a pair of
/// blocking byte queues; `InProcTransport` adapts one endpoint to the
/// `Transport` seam (transport.hpp). Every send is recorded in the
/// channel's shared ChannelStats. The socket-backed sibling is
/// `TcpTransport` (tcp.hpp); both keep bit-identical accounting.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "net/transport.hpp"

namespace c2pi::net {

/// One blocking FIFO direction of the duplex channel. Messages carry a
/// kind tag mirroring TcpTransport's frame types, so an artifact or key
/// batch met by a protocol recv (or vice versa) raises the same typed
/// error in-process that it would over a socket instead of silently
/// feeding setup bytes into the protocol.
class ByteQueue {
public:
    enum class MsgKind {
        kData = 0,      ///< ordinary protocol message
        kArtifact = 1,  ///< session-bootstrap artifact, not protocol data
        kKeys = 2,      ///< preprocessing key batch (Phase::kPreprocess)
    };

    struct Msg {
        std::vector<std::uint8_t> bytes;
        MsgKind kind = MsgKind::kData;
    };

    void push(Msg msg) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(msg));
        }
        cv_.notify_one();
    }

    /// FIN-like abrupt end: messages already queued still deliver, but a
    /// pop() finding the queue empty raises PeerClosed instead of
    /// blocking forever — the in-process analogue of reading EOF with no
    /// shutdown frame (fault injection's disconnect path).
    void abort() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            aborted_ = true;
        }
        cv_.notify_all();
    }

    [[nodiscard]] Msg pop() {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !queue_.empty() || aborted_; });
        if (queue_.empty())
            throw PeerClosed("in-proc recv: peer aborted the connection mid-protocol");
        auto msg = std::move(queue_.front());
        queue_.pop_front();
        return msg;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Msg> queue_;
    bool aborted_ = false;
};

/// Shared state of an in-process two-party connection.
class DuplexChannel {
public:
    ByteQueue& queue_to(int receiver) { return queues_[receiver]; }

    void record_send(int sender, Phase phase, std::size_t bytes) {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.record(sender, phase, bytes);
    }

    [[nodiscard]] ChannelStats stats() const {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        return stats_;
    }

    void reset_stats() {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_ = ChannelStats{};
    }

private:
    ByteQueue queues_[2];
    mutable std::mutex stats_mutex_;
    ChannelStats stats_;
};

/// A party's in-process endpoint of the duplex channel.
class InProcTransport final : public Transport {
public:
    InProcTransport(DuplexChannel& channel, int party_id)
        : Transport(party_id), channel_(&channel) {}

    void send_bytes(std::span<const std::uint8_t> data) override {
        channel_->record_send(party_, phase_, data.size());
        channel_->queue_to(1 - party_).push(
            {std::vector<std::uint8_t>(data.begin(), data.end()), ByteQueue::MsgKind::kData});
    }

    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override {
        auto msg = timed_pop(phase_);
        require(msg.kind == ByteQueue::MsgKind::kData,
                "in-proc recv: unexpected bootstrap/keys message mid-protocol");
        return std::move(msg.bytes);
    }

    [[nodiscard]] ChannelStats stats() const override { return channel_->stats(); }

    /// Recv wait is the queue-pop block; a push never blocks, so the
    /// in-process send path is already pipelined and flush_sends stays
    /// the base-class no-op. Pop waits are attributed to the RECEIVER's
    /// current phase (the two parties move phases in lock-step, so this
    /// matches the sender's tag).
    [[nodiscard]] WaitStats wait_stats() const override {
        const std::lock_guard<std::mutex> lock(wait_mutex_);
        return waits_;
    }

    /// Abrupt disconnect: both directions die — the peer's next empty-
    /// queue pop raises PeerClosed, and so does ours (nothing more can
    /// ever arrive once the counterparty is "gone").
    void abort_connection() noexcept override {
        channel_->queue_to(1 - party_).abort();
        channel_->queue_to(party_).abort();
    }

    /// End of session: the peer still reads every message already sent,
    /// then raises PeerClosed instead of blocking forever.
    void close() noexcept override { channel_->queue_to(1 - party_).abort(); }

    /// Session bootstrap (artifact shipping): enqueued like any message
    /// but NOT metered — setup bytes are transport overhead, never
    /// protocol traffic (mirrors TcpTransport's unmetered kArtifact
    /// frame).
    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override {
        channel_->queue_to(1 - party_).push(
            {std::vector<std::uint8_t>(bytes.begin(), bytes.end()), ByteQueue::MsgKind::kArtifact});
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override {
        auto msg = channel_->queue_to(party_).pop();
        require(msg.kind == ByteQueue::MsgKind::kArtifact,
                "in-proc recv: expected the session's artifact message");
        return std::move(msg.bytes);
    }

    /// Preprocessing key batches: metered, but always under
    /// Phase::kPreprocess regardless of the transport's current phase
    /// (mirrors TcpTransport's kKeys frame).
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override {
        channel_->record_send(party_, Phase::kPreprocess, bytes.size());
        channel_->queue_to(1 - party_).push(
            {std::vector<std::uint8_t>(bytes.begin(), bytes.end()), ByteQueue::MsgKind::kKeys});
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override {
        auto msg = timed_pop(Phase::kPreprocess);
        require(msg.kind == ByteQueue::MsgKind::kKeys,
                "in-proc recv: expected a preprocessing key batch");
        return std::move(msg.bytes);
    }

private:
    [[nodiscard]] ByteQueue::Msg timed_pop(Phase phase) {
        const auto t0 = std::chrono::steady_clock::now();
        auto msg = channel_->queue_to(party_).pop();
        const double waited =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        const std::lock_guard<std::mutex> lock(wait_mutex_);
        waits_.add_recv(phase, waited);
        return msg;
    }

    DuplexChannel* channel_;
    mutable std::mutex wait_mutex_;
    WaitStats waits_;
};

}  // namespace c2pi::net
