#pragma once

/// \file session.hpp
/// The serve-many half of the PI API: explicit party roles over a
/// transport seam.
///
/// A `ServerSession` (model owner) and a `ClientSession` (input owner)
/// each drive their own side of a `net::Transport`. The server borrows
/// an immutable `CompiledModel` (weights + HE precompute); the client
/// borrows only the **public** half — a `ClientModel` compiled from a
/// `ModelArtifact`, or the artifact view embedded in a CompiledModel for
/// in-process runs. Per-inference state (PRG, OT extension, client HE
/// key) lives inside the run() call, so one session object can serve any
/// number of concurrent runs.
///
/// `run_private_inference` wires one server and one client through an
/// in-process `net::DuplexChannel` (the classic two-thread setup); it is
/// the single-pair reference the parity tests compare against. Batches
/// and concurrent clients are served by `pi::ServingPool`
/// (serving_pool.hpp). The session API itself is transport-agnostic: the
/// same sessions run as two OS processes over `net::TcpTransport`
/// (tcp.hpp), where the server
/// ships its artifact at session start and the client runs **weightless**
/// — see examples/pi_server.cpp and examples/pi_client.cpp.

#include <optional>

#include "mpc/nonlinear.hpp"
#include "net/runtime.hpp"
#include "pi/compiled_model.hpp"

namespace c2pi::pi {

/// Default for SessionConfig::pipeline: true unless the environment sets
/// C2PI_PIPELINE to "0" or "off" (CI runs the full suite both ways).
[[nodiscard]] bool pipeline_default();

/// Per-connection protocol parameters. Both parties of a session must
/// agree on all fields (the seed feeds the trusted-dealer base-OT
/// substitution, DESIGN.md §4).
struct SessionConfig {
    PiBackend backend = PiBackend::kCheetah;
    /// Uniform noise magnitude the client adds to its revealed share
    /// (C2PI's extra defense; ignored for full PI).
    float noise_lambda = 0.0F;
    std::uint64_t seed = kDefaultSeed;
    /// Nonlinear-layer backend override. nullopt = the protocol family's
    /// native choice (Delphi -> garbled circuits, Cheetah -> OT
    /// millionaire). The server's resolved choice is authoritative: it is
    /// announced at session start, and a client whose own explicit choice
    /// differs raises NonlinearMismatch instead of hanging mid-protocol.
    std::optional<mpc::NonlinearBackend> nonlinear;
    /// Compute/communication overlap (docs/PROTOCOL.md §10): pipelined
    /// transport sends, chunked HE response streaming, and cross-layer
    /// mask prefetch. Purely local scheduling — wire bytes, frame order,
    /// and logits are bit-identical either way, so the two parties need
    /// NOT agree on this field. Default on; C2PI_PIPELINE=0 forces it off
    /// (see pipeline_default).
    bool pipeline = pipeline_default();
};

/// The server's resolved nonlinear backend for this config.
[[nodiscard]] mpc::NonlinearBackend resolve_nonlinear(const SessionConfig& config);

/// Short stable name ("gc", "ot", "fss") for flags and stats lines.
[[nodiscard]] const char* nonlinear_name(mpc::NonlinearBackend backend);

/// Typed negotiation failure: the server announced a nonlinear backend
/// and the client was explicitly configured for a different one.
struct NonlinearMismatch final : Error {
    NonlinearMismatch(mpc::NonlinearBackend server_choice, mpc::NonlinearBackend client_choice);
};

/// The model owner's side of one private inference.
class ServerSession {
public:
    ServerSession(const CompiledModel& model, SessionConfig config)
        : model_(&model), config_(config) {}

    /// Serve one inference over the transport. The clear tail (if any)
    /// runs inline on this request's revealed [1, ...] boundary
    /// activation.
    void run(net::Transport& transport) const;

    [[nodiscard]] const CompiledModel& model() const { return *model_; }
    [[nodiscard]] const SessionConfig& config() const { return config_; }

private:
    const CompiledModel* model_;
    SessionConfig config_;
};

/// The input owner's side of one private inference. Operates purely on
/// the public artifact: the plan, fixed-point format, BFV context and
/// encoder geometry. It cannot read weights because the types it borrows
/// never contain any.
class ClientSession {
public:
    /// The deployed form: a weightless client compiled from a (typically
    /// wire-received) artifact.
    ClientSession(const ClientModel& model, SessionConfig config)
        : artifact_(&model.artifact()),
          bfv_(&model.bfv()),
          caches_(&model.layer_caches()),
          gc_cache_(&model.gc_cache()),
          config_(config) {}

    /// In-process convenience: borrow the public half of a server-side
    /// CompiledModel (its artifact, BFV context and the encoder geometry
    /// of its caches — the weight plaintexts next to them are never read
    /// by client code).
    ClientSession(const CompiledModel& model, SessionConfig config)
        : artifact_(&model.artifact()),
          bfv_(&model.bfv()),
          caches_(&model.layer_caches()),
          gc_cache_(&model.gc_cache()),
          config_(config) {}

    /// Run one private inference on a [1,C,H,W] input matching the
    /// artifact's input shape; returns the logits [1, classes].
    [[nodiscard]] Tensor run(net::Transport& transport, const Tensor& input) const;

    [[nodiscard]] const ModelArtifact& artifact() const { return *artifact_; }
    [[nodiscard]] const SessionConfig& config() const { return config_; }

private:
    const ModelArtifact* artifact_;
    const he::BfvContext* bfv_;
    const std::vector<LayerCache>* caches_;
    mpc::GcCircuitCache* gc_cache_;
    SessionConfig config_;
};

/// Validate a client input against a public artifact: a single [1,C,H,W]
/// tensor matching the artifact's input shape. Throws c2pi::Error
/// otherwise. Every serving entry point calls this up front so a bad
/// input fails before any session starts.
void validate_client_input(const ModelArtifact& artifact, const Tensor& input);
inline void validate_client_input(const CompiledModel& model, const Tensor& input) {
    validate_client_input(model.artifact(), input);
}

/// Connect one ServerSession and one ClientSession in-process (two
/// threads over a DuplexChannel) and run a single inference.
[[nodiscard]] PiResult run_private_inference(const CompiledModel& model,
                                             const SessionConfig& config, const Tensor& input);

/// Translate per-phase channel accounting into PiStats. Works for any
/// Transport implementation (the in-process channel and TcpTransport
/// keep identical accounting); wall time is not the channel's to know —
/// fill `wall_seconds` from your own clock.
[[nodiscard]] PiStats stats_from_channel(const net::ChannelStats& stats);

/// stats_from_channel plus this party's compute-vs-network split: the
/// transport's per-phase blocked-on-network seconds (recv waits + any
/// pipelined-send backpressure) land in the *_wait_seconds fields.
[[nodiscard]] PiStats stats_from_transport(const net::Transport& transport);

/// Translate a finished run's channel accounting into PiStats.
[[nodiscard]] PiStats stats_from_run(const net::RunResult& run);

}  // namespace c2pi::pi
