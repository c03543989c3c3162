#include "pi/serving_pool.hpp"

#include <algorithm>
#include <thread>

#include "core/stopwatch.hpp"
#include "net/channel.hpp"

namespace c2pi::pi {

namespace {

/// Validate every option at the API boundary, then resolve the worker
/// count (0 = auto, like CompiledModel::Options::num_threads).
int validated_workers(const ServingPool::Options& o) {
    require(o.workers >= 0 && o.workers <= core::kMaxThreads,
            "ServingPool workers must lie in [0, 1024] (0 = auto)");
    require(o.queue_capacity >= 0, "ServingPool queue_capacity must be >= 0");
    require(o.recv_timeout_ms >= 0, "ServingPool recv_timeout_ms must be >= 0");
    require(o.handshake_timeout_ms >= 0,
            "ServingPool handshake_timeout_ms must be >= 0 (0 disables the short deadline)");
    return core::resolve_thread_count(o.workers);
}

/// Largest group run_batch serves on one pool: every request of a group
/// is in flight at once (a pool worker and a client thread each), so
/// this caps the thread count for a batch of any size.
constexpr std::size_t kMaxBatchGroup = 64;

void add_traffic(PiStats& total, const PiStats& s) {
    total.offline_bytes += s.offline_bytes;
    total.online_bytes += s.online_bytes;
    total.preprocess_bytes += s.preprocess_bytes;
    total.offline_flights += s.offline_flights;
    total.online_flights += s.online_flights;
    total.preprocess_flights += s.preprocess_flights;
}

}  // namespace

const char* failure_class_name(FailureClass c) {
    switch (c) {
        case FailureClass::kClientAbort: return "client-abort";
        case FailureClass::kProtocolViolation: return "protocol-violation";
        case FailureClass::kTimeout: return "timeout";
        case FailureClass::kInternal: return "internal";
    }
    return "internal";
}

FailureClass classify_failure(const std::exception& e) {
    // Order matters: the typed transport failures derive c2pi::Error, so
    // they must be tested before the generic Error bucket.
    if (dynamic_cast<const net::RecvTimeout*>(&e) != nullptr) return FailureClass::kTimeout;
    if (dynamic_cast<const net::PeerClosed*>(&e) != nullptr) return FailureClass::kClientAbort;
    if (dynamic_cast<const Error*>(&e) != nullptr) return FailureClass::kProtocolViolation;
    return FailureClass::kInternal;
}

ServingPool::ServingPool(const CompiledModel& model, SessionConfig config, Options options,
                         std::function<void(const SessionReport&)> on_session)
    : session_(model, config),
      artifact_bytes_(model.artifact().serialize()),
      artifact_digest_(digest_of(artifact_bytes_)),
      options_(options),
      on_session_(std::move(on_session)),
      queue_(validated_workers(options), options.queue_capacity) {}

ServingPool::~ServingPool() { drain(); }

bool ServingPool::serve(std::unique_ptr<net::Transport> transport) {
    require(transport != nullptr, "ServingPool::serve needs a connected transport");
    // shared_ptr: std::function requires a copyable callable.
    std::shared_ptr<net::Transport> shared(std::move(transport));
    std::uint64_t index = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        index = ++stats_.accepted;
    }
    // The report goes out once the worker has freed its admission slot, so
    // an observer that sees a session end can be admitted right away.
    auto report = std::make_shared<SessionReport>();
    const bool admitted = queue_.try_submit(
        [this, shared, index, report] { *report = serve_one(*shared, index); },
        [this, report] {
            if (!on_session_) return;
            // Serialized on its own mutex so one slow observer (stdout)
            // never blocks a stats() reader.
            const std::lock_guard<std::mutex> lock(report_mutex_);
            on_session_(*report);
        });
    if (!admitted) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.rejected;
        }
        // serve() runs on the accept loop, so the refusal must not wait
        // on the peer (TcpTransport skips the close drain here).
        shared->refuse_busy();
    }
    return admitted;
}

ServingPool::SessionReport ServingPool::serve_one(net::Transport& transport,
                                                  std::uint64_t index) noexcept {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.active;
        stats_.concurrent_peak = std::max(stats_.concurrent_peak, stats_.active);
    }
    SessionReport report;
    report.index = index;
    Stopwatch watch;
    try {
        transport.set_recv_timeout(options_.recv_timeout_ms);
        // Bootstrap-phase laggards (connected-then-silent, died after the
        // handshake) are shed on the short deadline; the transport
        // promotes to the steady timeout at the first DATA frame.
        if (options_.handshake_timeout_ms > 0)
            transport.arm_handshake_deadline(options_.handshake_timeout_ms);
        report.artifact_from_cache =
            ship_artifact(transport, artifact_bytes_, artifact_digest_);
        session_.run(transport);
        report.stats = stats_from_transport(transport);
        report.stats.wall_seconds = watch.seconds();
        report.ok = true;
    } catch (const std::exception& e) {
        report.ok = false;
        report.error = e.what();
        report.failure = classify_failure(e);
        report.exception = std::current_exception();
    } catch (...) {
        report.ok = false;
        report.error = "unknown error";
        report.failure = FailureClass::kInternal;
        report.exception = std::current_exception();
    }
    transport.close();  // noexcept; idempotent
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        --stats_.active;
        if (report.artifact_from_cache) ++stats_.artifact_skips;
        if (report.ok) {
            ++stats_.served;
            add_traffic(stats_.traffic, report.stats);
            stats_.traffic.wall_seconds += report.stats.wall_seconds;
            stats_.traffic.offline_wait_seconds += report.stats.offline_wait_seconds;
            stats_.traffic.online_wait_seconds += report.stats.online_wait_seconds;
            stats_.traffic.preprocess_wait_seconds += report.stats.preprocess_wait_seconds;
        } else {
            ++stats_.failed;
            ++stats_.failed_by_class[static_cast<int>(report.failure)];
        }
    }
    return report;
}

void ServingPool::drain() { queue_.drain(); }

ServingPool::Stats ServingPool::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

BatchResult run_batch(const CompiledModel& model, const SessionConfig& config,
                      std::span<const Tensor> inputs) {
    require(!inputs.empty(), "run_batch on an empty batch");
    // Validate the whole batch before any session starts, so a bad input
    // fails the call up front instead of mid-protocol.
    for (const Tensor& input : inputs) validate_client_input(model, input);
    Stopwatch watch;

    // Every client's digest lookup hits this one ClientModel, so no
    // request compiles its own.
    ArtifactCache cache;
    cache.insert(digest_of(model.artifact().serialize()),
                 std::make_shared<const ClientModel>(model.artifact(), model.num_threads()));

    BatchResult batch;
    batch.results.resize(inputs.size());
    for (std::size_t begin = 0; begin < inputs.size(); begin += kMaxBatchGroup) {
        const std::size_t count = std::min(kMaxBatchGroup, inputs.size() - begin);
        std::vector<net::DuplexChannel> channels(count);  // outlive the pool's drain
        std::vector<std::exception_ptr> server_errors(count), client_errors(count);
        {
            const ServingPool::Options options{.workers = static_cast<int>(count),
                                               .queue_capacity = 0};
            ServingPool pool(model, config, options, [&](const ServingPool::SessionReport& r) {
                server_errors[r.index - 1] = r.exception;
            });
            std::vector<std::thread> clients;
            clients.reserve(count);
            for (std::size_t g = 0; g < count; ++g) {
                // Always admitted: the pool has a worker per request.
                (void)pool.serve(std::make_unique<net::InProcTransport>(channels[g], 0));
                clients.emplace_back([&, g] {
                    net::InProcTransport transport(channels[g], 1);
                    try {
                        const Stopwatch client_watch;
                        const Bootstrap boot = fetch_artifact(transport, &cache);
                        PiResult& res = batch.results[begin + g];
                        res.logits = ClientSession(*boot.model, config).run(transport, inputs[begin + g]);
                        res.stats = stats_from_transport(transport);
                        res.stats.wall_seconds = client_watch.seconds();
                        res.crypto_linear_ops = model.crypto_linear_ops();
                        res.hidden_linear_ops = model.hidden_linear_ops();
                    } catch (...) {
                        client_errors[g] = std::current_exception();
                        // In-process transports have no recv timeout: end the
                        // connection so the server worker unblocks.
                        transport.abort_connection();
                    }
                });
            }
            for (auto& c : clients) c.join();
            pool.drain();
        }
        for (std::size_t g = 0; g < count; ++g)
            if (auto error = net::root_cause(server_errors[g], client_errors[g]))
                std::rethrow_exception(error);
    }

    for (const PiResult& res : batch.results) add_traffic(batch.aggregate, res.stats);
    batch.aggregate.wall_seconds = watch.seconds();
    return batch;
}

}  // namespace c2pi::pi
