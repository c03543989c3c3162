#pragma once

// Transport decorator shared by the parity suites: records every sent
// payload verbatim and forwards every call a session makes to the
// wrapped transport. Protocol messages and FSS key batches are recorded
// (key batches are protocol traffic); the artifact frame is session
// setup and is not. Recording happens on the calling protocol thread
// before the inner send, so it is race-free whatever the inner transport
// does with the bytes afterwards (TcpTransport queues its own copy for
// its writer thread). Phase is forwarded before every message because
// Transport::set_phase is not virtual.

#include <cstdint>
#include <span>
#include <vector>

#include "net/transport.hpp"

namespace c2pi {

class RecordingTransport final : public net::Transport {
public:
    RecordingTransport(net::Transport& inner, std::vector<std::vector<std::uint8_t>>& sent)
        : Transport(inner.party_id()), inner_(&inner), sent_(&sent) {}

    void send_bytes(std::span<const std::uint8_t> data) override {
        sent_->emplace_back(data.begin(), data.end());
        inner_->set_phase(phase_);
        inner_->send_bytes(data);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override {
        inner_->set_phase(phase_);
        return inner_->recv_bytes();
    }
    void recv_bytes_into(std::vector<std::uint8_t>& out) override {
        inner_->set_phase(phase_);
        inner_->recv_bytes_into(out);
    }
    [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }
    [[nodiscard]] net::WaitStats wait_stats() const override { return inner_->wait_stats(); }
    void flush_sends() override { inner_->flush_sends(); }

    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override {
        inner_->send_artifact_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override {
        return inner_->recv_artifact_bytes();
    }
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override {
        sent_->emplace_back(bytes.begin(), bytes.end());
        inner_->send_keys_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override {
        return inner_->recv_keys_bytes();
    }

private:
    net::Transport* inner_;
    std::vector<std::vector<std::uint8_t>>* sent_;
};

}  // namespace c2pi
