// Tests for the network simulation layer: byte/message/flight accounting,
// phase attribution, typed send/recv helpers, the LAN/WAN latency model,
// and error propagation (connection teardown) in the two-party runtime.

#include <gtest/gtest.h>

#include "net/cost_model.hpp"
#include "net/runtime.hpp"

namespace c2pi::net {
namespace {

TEST(Channel, CountsBytesPerSenderAndPhase) {
    DuplexChannel channel;
    run_two_party(
        channel,
        [](Transport& t) {
            t.set_phase(Phase::kOffline);
            t.send_bytes(std::vector<std::uint8_t>(100));
            t.set_phase(Phase::kOnline);
            t.send_bytes(std::vector<std::uint8_t>(7));
            (void)t.recv_bytes();
        },
        [](Transport& t) {
            (void)t.recv_bytes();
            (void)t.recv_bytes();
            t.send_bytes(std::vector<std::uint8_t>(11));
        });
    const auto s = channel.stats();
    EXPECT_EQ(s.bytes[static_cast<int>(Phase::kOffline)][0], 100U);
    EXPECT_EQ(s.bytes[static_cast<int>(Phase::kOnline)][0], 7U);
    EXPECT_EQ(s.bytes[static_cast<int>(Phase::kOnline)][1], 11U);
    EXPECT_EQ(s.total_bytes(), 118U);
    EXPECT_EQ(s.phase_bytes(Phase::kOffline), 100U);
}

TEST(Channel, FlightCountingTracksDirectionChanges) {
    DuplexChannel channel;
    run_two_party(
        channel,
        [](Transport& t) {
            // Two consecutive sends = one flight; then a reply flight; then
            // another server flight.
            t.send_u64(1);
            t.send_u64(2);
            (void)t.recv_u64();
            t.send_u64(3);
        },
        [](Transport& t) {
            (void)t.recv_u64();
            (void)t.recv_u64();
            t.send_u64(9);
            (void)t.recv_u64();
        });
    EXPECT_EQ(channel.stats().total_flights(), 3U);
}

TEST(ChannelStats, RecordCountsDirectionChangeRunsPerPhase) {
    // A flight is a maximal run of messages in ONE direction; it is
    // charged to the phase of the message that OPENS it, and a phase
    // change inside a run does not open a new flight.
    ChannelStats s;
    s.record(0, Phase::kOffline, 10);  // flight 1 (offline)
    s.record(0, Phase::kOffline, 10);  // same run
    s.record(0, Phase::kOnline, 10);   // same run: phase flip, no turn
    s.record(1, Phase::kOnline, 5);    // flight 2 (online)
    s.record(0, Phase::kOffline, 1);   // flight 3 (offline)
    s.record(1, Phase::kOffline, 1);   // flight 4 (offline)
    EXPECT_EQ(s.phase_flights(Phase::kOffline), 3U);
    EXPECT_EQ(s.phase_flights(Phase::kOnline), 1U);
    EXPECT_EQ(s.total_flights(), 4U);
    EXPECT_EQ(s.bytes[static_cast<int>(Phase::kOffline)][0], 21U);
    EXPECT_EQ(s.messages[static_cast<int>(Phase::kOffline)][0], 3U);
    EXPECT_EQ(s.messages[static_cast<int>(Phase::kOnline)][1], 1U);
}

TEST(Channel, FlightsAttributedToPhasesAcrossTheWireProtocol) {
    // The same per-phase attribution, end to end through a transport
    // pair: an offline run, an online reply, an offline turn.
    DuplexChannel channel;
    run_two_party(
        channel,
        [](Transport& t) {
            t.set_phase(Phase::kOffline);
            t.send_u64(1);  // flight 1 opens offline
            t.set_phase(Phase::kOnline);
            t.send_u64(2);  // same flight, now online bytes
            (void)t.recv_u64();
            t.set_phase(Phase::kOffline);
            t.send_u64(3);  // flight 3 opens offline
        },
        [](Transport& t) {
            (void)t.recv_u64();
            (void)t.recv_u64();
            t.send_u64(9);  // flight 2 opens online
            (void)t.recv_u64();
        });
    const auto s = channel.stats();
    EXPECT_EQ(s.phase_flights(Phase::kOffline), 2U);
    EXPECT_EQ(s.phase_flights(Phase::kOnline), 1U);
    EXPECT_EQ(s.phase_bytes(Phase::kOffline), 16U);
    EXPECT_EQ(s.phase_bytes(Phase::kOnline), 16U);
}

TEST(Channel, TypedHelpersRoundTrip) {
    DuplexChannel channel;
    std::vector<std::uint64_t> got;
    run_two_party(
        channel,
        [](Transport& t) {
            const std::vector<std::uint64_t> values{1, 0xFFFFFFFFFFFFFFFFULL, 42};
            t.send_u64s(values);
        },
        [&](Transport& t) { got = t.recv_u64s(); });
    EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 0xFFFFFFFFFFFFFFFFULL, 42}));
}

TEST(Channel, RecvU64sRejectsRaggedPayload) {
    DuplexChannel channel;
    EXPECT_THROW(run_two_party(
                     channel,
                     [](Transport& t) { t.send_bytes(std::vector<std::uint8_t>(3)); },
                     [](Transport& t) { (void)t.recv_u64s(); }),
                 Error);
}

TEST(Channel, ResetStatsClears) {
    DuplexChannel channel;
    run_two_party(
        channel, [](Transport& t) { t.send_u64(5); }, [](Transport& t) { (void)t.recv_u64(); });
    EXPECT_GT(channel.stats().total_bytes(), 0U);
    channel.reset_stats();
    EXPECT_EQ(channel.stats().total_bytes(), 0U);
    EXPECT_EQ(channel.stats().total_flights(), 0U);
}

TEST(Runtime, PropagatesServerException) {
    DuplexChannel channel;
    EXPECT_THROW(run_two_party(
                     channel, [](Transport&) { fail("server exploded"); },
                     [](Transport& t) { (void)t.recv_bytes(); }),
                 Error);
}

TEST(Runtime, PropagatesClientExceptionWhileServerBlocks) {
    // The failing party's teardown must unblock the peer waiting on recv.
    DuplexChannel channel;
    EXPECT_THROW(run_two_party(
                     channel, [](Transport& t) { (void)t.recv_u64(); },
                     [](Transport&) { fail("client exploded"); }),
                 Error);
}

TEST(Runtime, ReportsWallTime) {
    DuplexChannel channel;
    const auto result = run_two_party(
        channel, [](Transport& t) { t.send_u64(1); }, [](Transport& t) { (void)t.recv_u64(); });
    EXPECT_GE(result.wall_seconds, 0.0);
    EXPECT_LT(result.wall_seconds, 5.0);
}

TEST(CostModel, PaperLinkParameters) {
    const auto lan = NetworkModel::lan();
    const auto wan = NetworkModel::wan();
    EXPECT_NEAR(lan.bandwidth_bytes_per_s, 384.0 * 1024 * 1024, 1.0);
    EXPECT_NEAR(lan.rtt_seconds, 0.3e-3, 1e-9);
    EXPECT_NEAR(wan.bandwidth_bytes_per_s, 44.0 * 1024 * 1024, 1.0);
    EXPECT_NEAR(wan.rtt_seconds, 40e-3, 1e-9);
}

TEST(CostModel, LatencyDecomposition) {
    const NetworkModel net{"test", 1000.0, 0.2};
    // 1s compute + 500 bytes / 1000 Bps + 4 flights * 0.1s = 1.9s.
    EXPECT_NEAR(net.latency_seconds(1.0, 500, 4), 1.9, 1e-12);
}

TEST(CostModel, WanDominatedByRoundTripsForChattyProtocols) {
    // Same bytes, many flights: WAN latency must blow up relative to LAN.
    const double lan = NetworkModel::lan().latency_seconds(0.0, 1 << 20, 100);
    const double wan = NetworkModel::wan().latency_seconds(0.0, 1 << 20, 100);
    EXPECT_GT(wan, 10.0 * lan);
}

}  // namespace
}  // namespace c2pi::net
