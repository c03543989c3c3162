#include "pi/session.hpp"

#include <string>

#include "fss/compare.hpp"
#include "fss/key_pool.hpp"
#include "mpc/linear.hpp"
#include "mpc/nonlinear.hpp"

namespace c2pi::pi {

mpc::NonlinearBackend resolve_nonlinear(const SessionConfig& config) {
    if (config.nonlinear.has_value()) return *config.nonlinear;
    return config.backend == PiBackend::kDelphi ? mpc::NonlinearBackend::kGarbledCircuit
                                                : mpc::NonlinearBackend::kOtMillionaire;
}

const char* nonlinear_name(mpc::NonlinearBackend backend) {
    switch (backend) {
        case mpc::NonlinearBackend::kGarbledCircuit:
            return "gc";
        case mpc::NonlinearBackend::kOtMillionaire:
            return "ot";
        case mpc::NonlinearBackend::kFss:
            return "fss";
    }
    fail("unknown nonlinear backend");
}

NonlinearMismatch::NonlinearMismatch(mpc::NonlinearBackend server_choice,
                                     mpc::NonlinearBackend client_choice)
    : Error(std::string("nonlinear backend mismatch: server announced '") +
            nonlinear_name(server_choice) + "' but this client was configured for '" +
            nonlinear_name(client_choice) + "'") {}

namespace {

/// AvgPool is linear: local window sums, multiply by encode(1/k^2) and
/// truncate (both parties independently).
std::vector<Ring> local_avgpool(std::span<const Ring> x, const LayerPlan& p,
                                const FixedPointFormat& fmt) {
    const std::int64_t c = p.in_shape[0], h = p.in_shape[1], w = p.in_shape[2];
    const std::int64_t oh = p.out_shape[1], ow = p.out_shape[2];
    const Ring inv = fmt.encode(1.0 / static_cast<double>(p.pool_kernel * p.pool_kernel));
    std::vector<Ring> out(static_cast<std::size_t>(c * oh * ow));
    std::size_t idx = 0;
    for (std::int64_t ch = 0; ch < c; ++ch)
        for (std::int64_t oy = 0; oy < oh; ++oy)
            for (std::int64_t ox = 0; ox < ow; ++ox, ++idx) {
                Ring acc = 0;
                for (std::int64_t ky = 0; ky < p.pool_kernel; ++ky)
                    for (std::int64_t kx = 0; kx < p.pool_kernel; ++kx)
                        acc += x[static_cast<std::size_t>(
                            (ch * h + oy * p.pool_stride + ky) * w + ox * p.pool_stride + kx)];
                out[idx] = fmt.truncate(acc * inv);
            }
    return out;
}

/// GlobalAvgPool is linear, like AvgPool: local channel-plane sums times
/// encode(1/(h*w)), truncated — no protocol rounds on either side.
std::vector<Ring> local_global_avgpool(std::span<const Ring> x, const LayerPlan& p,
                                       const FixedPointFormat& fmt) {
    const std::int64_t c = p.in_shape[0];
    const std::int64_t plane = p.in_shape[1] * p.in_shape[2];
    const Ring inv = fmt.encode(1.0 / static_cast<double>(plane));
    std::vector<Ring> out(static_cast<std::size_t>(c));
    for (std::int64_t ch = 0; ch < c; ++ch) {
        Ring acc = 0;
        for (std::int64_t k = 0; k < plane; ++k)
            acc += x[static_cast<std::size_t>(ch * plane + k)];
        out[static_cast<std::size_t>(ch)] = fmt.truncate(acc * inv);
    }
    return out;
}

/// Canonical post-nonlinear resharing: the client replaces its output
/// share with fresh draws from the dedicated share stream and shifts the
/// difference to the server (delta is one-time-padded by the fresh draw,
/// so the server learns nothing). The nonlinear backends reshare
/// differently and consume the party PRG differently; re-anchoring every
/// share that enters a linear layer to the backend-independent
/// share_prg() stream is what makes the local truncation error — and
/// therefore the logits — bit-identical across backends (ISSUE 6's
/// parity pin, tested in fss_test.cpp).
std::vector<Ring> reshare_canonical(mpc::PartyContext& ctx, std::vector<Ring> share) {
    if (ctx.is_server()) {
        std::vector<Ring> delta;
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), delta);
        require(delta.size() == share.size(), "reshare delta size mismatch");
        for (std::size_t i = 0; i < share.size(); ++i) share[i] += delta[i];
    } else {
        std::vector<Ring> delta(share.size());
        for (std::size_t i = 0; i < share.size(); ++i) {
            const Ring fresh = ctx.share_prg().next_u64();
            delta[i] = share[i] - fresh;
            share[i] = fresh;
        }
        ctx.transport().send_u64s(delta);
    }
    return share;
}

struct PartyRun {
    const std::vector<LayerPlan>& plan;
    const std::vector<LayerCache>& caches;  ///< compile-time HE precompute
    PiBackend backend;
    const FixedPointFormat& fmt;
    mpc::NonlinearBackend nonlinear;  ///< negotiated at session start

    /// Walk the planned DAG; `share` is this party's share of the
    /// boundary input. Sets phase per backend convention. The server
    /// serves straight from the compiled caches (no weight encode/NTT
    /// online); the client reuses their layouts.
    ///
    /// Plan entries execute in plan order (a topological order by
    /// construction); each entry's output share is kept live until its
    /// last consumer, so a chain plan degenerates to the pre-DAG
    /// move-through-one-buffer walk — identical traffic, identical PRG
    /// consumption, identical transcripts. Residual adds are local share
    /// additions: additive secret sharing makes them free (zero rounds,
    /// zero bytes — pinned by pi_test's residual stats test).
    std::vector<Ring> execute(mpc::PartyContext& ctx, std::vector<Ring> share) const {
        const std::size_t n = plan.size();
        // Slot s holds the share of entry s-1's output (slot 0 = the
        // input); last_use[s] is the index of its final consumer.
        std::vector<std::size_t> last_use(n + 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
            last_use[static_cast<std::size_t>(plan[i].input0 + 1)] = i;
            if (plan[i].op == PlanOp::kResidualAdd)
                last_use[static_cast<std::size_t>(plan[i].input1 + 1)] = i;
        }
        std::vector<std::vector<Ring>> outs(n);
        const auto take = [&](std::size_t i, std::int64_t src) -> std::vector<Ring> {
            std::vector<Ring>& s = src < 0 ? share : outs[static_cast<std::size_t>(src)];
            if (last_use[static_cast<std::size_t>(src + 1)] == i) return std::move(s);
            return s;  // copy: a later entry still consumes this slot
        };

        for (std::size_t i = 0; i < n; ++i) {
            const LayerPlan& p = plan[i];
            const bool offline_linear = backend == PiBackend::kDelphi;
            std::vector<Ring> cur = take(i, p.input0);
            switch (p.op) {
                case PlanOp::kConv:
                case PlanOp::kLinear: {
                    if (offline_linear) ctx.transport().set_phase(net::Phase::kOffline);
                    const mpc::LinearLayerCache& cache = caches[i].linear();
                    cur = ctx.is_server() ? mpc::he_linear_server(ctx, cache, cur)
                                          : mpc::he_linear_client(ctx, cache.layout(), cur);
                    ctx.transport().set_phase(net::Phase::kOnline);
                    for (auto& v : cur)
                        v = static_cast<Ring>(static_cast<std::int64_t>(v) >> fmt.frac_bits);
                    break;
                }
                case PlanOp::kRelu:
                    cur = reshare_canonical(ctx, mpc::secure_relu(ctx, cur, nonlinear));
                    break;
                case PlanOp::kMaxPool: {
                    mpc::RingTensor t(p.in_shape, std::move(cur));
                    cur = reshare_canonical(
                        ctx,
                        mpc::secure_maxpool(ctx, t, p.pool_kernel, p.pool_stride, nonlinear)
                            .data);
                    break;
                }
                case PlanOp::kAvgPool:
                    cur = local_avgpool(cur, p, fmt);
                    break;
                case PlanOp::kGlobalAvgPool:
                    cur = local_global_avgpool(cur, p, fmt);
                    break;
                case PlanOp::kResidualAdd: {
                    // [x]+[y] per party IS a share of x+y: no rounds, no
                    // bytes, no PRG draws. Shares stay at scale f, so no
                    // truncation either.
                    const std::vector<Ring> other = take(i, p.input1);
                    require(other.size() == cur.size(), "residual add share size mismatch");
                    for (std::size_t k = 0; k < cur.size(); ++k) cur[k] += other[k];
                    break;
                }
                case PlanOp::kFlatten:
                    break;  // NCHW flatten is a no-op on contiguous data
            }
            outs[i] = std::move(cur);
        }
        return std::move(outs.back());
    }
};

crypto::Block128 session_seed(const SessionConfig& config) {
    return crypto::Block128{config.seed, config.seed ^ 0xC2F1};
}

const SessionConfig& pipelined(const SessionConfig& config) {
    require(config.pipeline, "SessionConfig::pipeline = false: sessions always pipeline");
    return config;
}

}  // namespace

ServerSession::ServerSession(const CompiledModel& model, SessionConfig config)
    : model_(&model), config_(pipelined(config)) {}

ClientSession::ClientSession(const ClientModel& model, SessionConfig config)
    : model_(&model), config_(pipelined(config)) {}

void ServerSession::run(net::Transport& transport) const {
    const CompiledModel& cm = *model_;
    mpc::PartyContext ctx(transport, cm.fmt(), cm.bfv(), session_seed(config_));
    ctx.set_gc_cache(&cm.gc_cache());
    const mpc::NonlinearBackend nonlinear = resolve_nonlinear(config_);
    // Charge the dealer/base-OT setup to the offline phase. The last byte
    // of the setup message announces the server's (authoritative)
    // nonlinear backend choice.
    transport.set_phase(net::Phase::kOffline);
    std::vector<std::uint8_t> setup(crypto::OtSetupPair::setup_traffic_bytes() + 1);
    setup.back() = static_cast<std::uint8_t>(nonlinear);
    transport.send_bytes(setup);
    transport.set_phase(net::Phase::kOnline);

    // FSS preprocessing: deal the whole inference's key schedule up front
    // (plan-derived count, KEYS frame) so the online nonlinear phase is
    // one reconstruction round + local evals per layer.
    if (nonlinear == mpc::NonlinearBackend::kFss)
        fss::dealer_replenish(transport, ctx.prg(), ctx.fss_pool(),
                              count_fss_comparisons(cm.plan()), ctx.threads());

    std::vector<Ring> share(static_cast<std::size_t>(shape_numel(cm.input_shape())), 0);
    const PartyRun runner{cm.plan(), cm.layer_caches(), config_.backend, cm.fmt(), nonlinear};
    share = runner.execute(ctx, std::move(share));

    if (cm.full_pi()) {
        // Reveal logits to the client only.
        (void)mpc::reveal_shares_to(ctx, share, mpc::kClient);
        transport.flush_sends();
        return;
    }
    // C2PI: receive the client's (noised) share, finish in the clear.
    const auto boundary = mpc::reveal_shares_to(ctx, share, mpc::kServer);
    Tensor act(cm.batched_boundary_shape(1));
    for (std::int64_t i = 0; i < act.numel(); ++i)
        act[i] = static_cast<float>(cm.fmt().decode(boundary[static_cast<std::size_t>(i)]));
    const Tensor out = cm.run_clear_tail(act);
    // Ship the plaintext logits to the client (floats).
    std::vector<Ring> packed(static_cast<std::size_t>(out.numel()));
    for (std::int64_t i = 0; i < out.numel(); ++i)
        packed[static_cast<std::size_t>(i)] = cm.fmt().encode(out[i]);
    transport.send_u64s(packed);
    transport.flush_sends();
}

void validate_client_input(const ModelArtifact& artifact, const Tensor& input) {
    require(input.rank() == 4 && input.dim(0) == 1, "expects a single [1,C,H,W] input");
    require(Shape{input.dim(1), input.dim(2), input.dim(3)} == artifact.input_chw,
            "input shape does not match the compiled input shape");
}

Tensor ClientSession::run(net::Transport& transport, const Tensor& input) const {
    const ModelArtifact& art = model_->artifact();
    validate_client_input(art, input);

    mpc::PartyContext ctx(transport, art.fmt, model_->bfv(), session_seed(config_));
    ctx.set_gc_cache(&model_->gc_cache());
    transport.set_phase(net::Phase::kOffline);
    // Dealer setup; its trailing byte is the server's announced nonlinear
    // backend, which is authoritative for the session.
    const auto setup = transport.recv_bytes();
    require(setup.size() == crypto::OtSetupPair::setup_traffic_bytes() + 1,
            "dealer setup message has unexpected size");
    const std::uint8_t announced = setup.back();
    require(announced <= static_cast<std::uint8_t>(mpc::NonlinearBackend::kFss),
            "server announced an unknown nonlinear backend");
    const auto nonlinear = static_cast<mpc::NonlinearBackend>(announced);
    if (config_.nonlinear.has_value() && *config_.nonlinear != nonlinear)
        throw NonlinearMismatch(nonlinear, *config_.nonlinear);
    transport.set_phase(net::Phase::kOnline);
    crypto::ChaCha20Prg key_prg(crypto::Block128{config_.seed ^ 0x5E17, 0x11}, 3);
    ctx.set_client_key(model_->bfv().keygen(key_prg));

    // FSS preprocessing: receive the dealer's plan-sized key shipment.
    if (nonlinear == mpc::NonlinearBackend::kFss)
        fss::client_replenish(transport, ctx.fss_pool(), count_fss_comparisons(art.plan),
                              ctx.threads());

    std::vector<Ring> share(static_cast<std::size_t>(input.numel()));
    for (std::size_t i = 0; i < share.size(); ++i)
        share[i] = art.fmt.encode(input[static_cast<std::int64_t>(i)]);
    const PartyRun runner{art.plan, model_->layer_caches(), config_.backend, art.fmt, nonlinear};
    share = runner.execute(ctx, std::move(share));

    Tensor logits;
    if (art.full_pi) {
        const auto out = mpc::reveal_shares_to(ctx, share, mpc::kClient);
        transport.flush_sends();
        logits = Tensor({1, static_cast<std::int64_t>(out.size())});
        for (std::size_t i = 0; i < out.size(); ++i)
            logits[static_cast<std::int64_t>(i)] = static_cast<float>(art.fmt.decode(out[i]));
        return logits;
    }
    // C2PI: add uniform noise to the share before revealing it.
    if (config_.noise_lambda > 0.0F) {
        for (auto& v : share) {
            const double u =
                (static_cast<double>(ctx.prg().next_u64() >> 11) * 0x1.0p-53 * 2.0 - 1.0) *
                config_.noise_lambda;
            v += art.fmt.encode(u);
        }
    }
    (void)mpc::reveal_shares_to(ctx, share, mpc::kServer);
    const auto packed = transport.recv_u64s();
    transport.flush_sends();
    logits = Tensor({1, static_cast<std::int64_t>(packed.size())});
    for (std::size_t i = 0; i < packed.size(); ++i)
        logits[static_cast<std::int64_t>(i)] = static_cast<float>(art.fmt.decode(packed[i]));
    return logits;
}

PiStats stats_from_channel(const net::ChannelStats& channel) {
    PiStats stats;
    stats.offline_bytes = channel.phase_bytes(net::Phase::kOffline);
    stats.online_bytes = channel.phase_bytes(net::Phase::kOnline);
    stats.preprocess_bytes = channel.phase_bytes(net::Phase::kPreprocess);
    stats.offline_flights = channel.phase_flights(net::Phase::kOffline);
    stats.online_flights = channel.phase_flights(net::Phase::kOnline);
    stats.preprocess_flights = channel.phase_flights(net::Phase::kPreprocess);
    return stats;
}

PiStats stats_from_transport(const net::Transport& transport) {
    PiStats stats = stats_from_channel(transport.stats());
    const net::WaitStats waits = transport.wait_stats();
    stats.offline_wait_seconds = waits.phase_seconds(net::Phase::kOffline);
    stats.online_wait_seconds = waits.phase_seconds(net::Phase::kOnline);
    stats.preprocess_wait_seconds = waits.phase_seconds(net::Phase::kPreprocess);
    return stats;
}

PiStats stats_from_run(const net::RunResult& run) {
    PiStats stats = stats_from_channel(run.stats);
    stats.wall_seconds = run.wall_seconds;
    return stats;
}

PiResult run_private_inference(const CompiledModel& model, const SessionConfig& config,
                               const Tensor& input) {
    // Validate before spawning the parties: a bad input fails here, before
    // the server has done any protocol work. The client compiles its
    // public half from the artifact, as run_batch does, before the run.
    validate_client_input(model, input);
    const ServerSession server(model, config);
    const ClientModel client_model(model.artifact(), model.num_threads());
    const ClientSession client(client_model, config);

    net::DuplexChannel channel;
    Tensor logits;
    const auto run = net::run_two_party(
        channel, [&](net::Transport& t) { server.run(t); },
        [&](net::Transport& t) { logits = client.run(t, input); });

    PiResult result;
    result.logits = std::move(logits);
    result.stats = stats_from_run(run);
    result.crypto_linear_ops = model.crypto_linear_ops();
    result.hidden_linear_ops = model.hidden_linear_ops();
    return result;
}

}  // namespace c2pi::pi
