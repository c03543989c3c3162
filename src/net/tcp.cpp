#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // BSD/macOS: SO_NOSIGPIPE is set per-socket instead
#endif

namespace c2pi::net {

namespace {

[[noreturn]] void fail_errno(const char* what) {
    fail(std::string(what) + ": " + std::strerror(errno));
}

void close_quietly(int& fd) {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/// A dead peer on the send side (EPIPE thanks to MSG_NOSIGNAL, or a
/// reset) is a typed PeerClosed, not a generic error: the serving pool
/// classifies it as a client abort.
[[noreturn]] void fail_send_errno() {
    if (errno == EPIPE || errno == ECONNRESET)
        throw PeerClosed(std::string("tcp send: peer went away (") + std::strerror(errno) +
                         ")");
    fail_errno("tcp send");
}

/// Write the whole buffer (send(2) may write short). MSG_NOSIGNAL turns
/// a dead peer into EPIPE instead of a process-killing SIGPIPE.
void write_all(int fd, const std::uint8_t* data, std::size_t len) {
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail_send_errno();
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

/// Read exactly `len` bytes; false on clean EOF at a frame boundary
/// (offset 0), throws typed errors on EOF mid-buffer (PeerClosed),
/// timeout (RecvTimeout), reset (PeerClosed), or socket error.
bool read_all(int fd, std::uint8_t* data, std::size_t len) {
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::recv(fd, data + got, len - got, 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw RecvTimeout("tcp recv: timed out waiting for the peer");
            if (errno == ECONNRESET)
                throw PeerClosed("tcp recv: connection reset by peer");
            fail_errno("tcp recv");
        }
        if (n == 0) {
            if (got == 0) return false;
            throw PeerClosed("tcp recv: connection closed mid-frame");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

void put_u32le(std::uint8_t* p, std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// The 8-byte frame header (docs/PROTOCOL.md §2) of a payload_size-byte frame.
void frame_header(std::uint8_t* header, FrameType type, Phase phase, std::size_t payload_size) {
    require(payload_size <= kMaxFramePayload, "tcp send: frame payload too large");
    put_u32le(header, static_cast<std::uint32_t>(payload_size));
    header[4] = static_cast<std::uint8_t>(type);
    header[5] = static_cast<std::uint8_t>(phase);
    header[6] = header[7] = 0;
}

std::uint32_t get_u32le(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Bound on bytes parked in the send queue; past it the protocol thread
/// blocks (charged as send wait) until the writer catches up, so a slow
/// link applies backpressure instead of buffering a whole inference
/// unboundedly. A single over-bound frame is still admitted when the
/// queue is empty.
constexpr std::size_t kMaxQueuedSendBytes = std::size_t{1} << 26;  // 64 MiB

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    require(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
            "not an IPv4 address: " + host);
    return addr;
}

}  // namespace

// ------------------------------------------------------------ TcpTransport ---

TcpTransport::TcpTransport(int fd, int party_id, int handshake_timeout_ms)
    : Transport(party_id), fd_(fd) {
    require(fd >= 0, "TcpTransport needs a connected socket");
    require(handshake_timeout_ms > 0, "handshake timeout must be positive");
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
#ifdef SO_NOSIGPIPE  // BSD/macOS spelling of MSG_NOSIGNAL's job
    (void)::setsockopt(fd_, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif

    // Handshake: magic | version | party | reserved, both directions. On
    // failure the socket must be closed HERE: the destructor never runs
    // for a throwing constructor, and a leaked-open fd would leave the
    // peer blocked on recv instead of seeing our EOF. The read is
    // deadline-bounded so a connected-but-silent peer (a port scanner, a
    // stalled client) cannot wedge an accept-loop server; protocol recv
    // reverts to blocking-forever unless set_recv_timeout says otherwise.
    timeval handshake_tv{};
    handshake_tv.tv_sec = handshake_timeout_ms / 1000;
    handshake_tv.tv_usec = (handshake_timeout_ms % 1000) * 1000;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &handshake_tv, sizeof(handshake_tv));
    try {
        std::uint8_t hello[kHandshakeSize] = {kWireMagic[0], kWireMagic[1], kWireMagic[2],
                                              kWireMagic[3], kWireVersion,
                                              static_cast<std::uint8_t>(party_), 0, 0};
        write_all(fd_, hello, sizeof(hello));
        std::uint8_t peer[kHandshakeSize];
        if (!read_all(fd_, peer, sizeof(peer)))
            fail("tcp handshake: peer closed the connection");
        require(std::memcmp(peer, kWireMagic, sizeof(kWireMagic)) == 0,
                "tcp handshake: bad magic (not a C2PI peer)");
        require(peer[4] == kWireVersion, "tcp handshake: protocol version mismatch");
        require(peer[5] == static_cast<std::uint8_t>(1 - party_),
                "tcp handshake: both endpoints claim the same party role");
        handshake_tv = timeval{};
        (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &handshake_tv, sizeof(handshake_tv));
        writer_ = std::thread([this] { writer_loop(); });
    } catch (...) {
        close_quietly(fd_);
        throw;
    }
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::send_frame(FrameType type, Phase phase,
                              std::span<const std::uint8_t> payload) {
    // Copy header+payload into one contiguous frame and hand it to the
    // writer thread. The copy frees the caller's buffer (protocols reuse
    // a per-session scratch) immediately; frame ORDER is the queue order,
    // which is the call order.
    std::uint8_t header[kFrameHeaderSize];
    frame_header(header, type, phase, payload.size());
    std::vector<std::uint8_t> frame(kFrameHeaderSize + payload.size());
    std::memcpy(frame.data(), header, kFrameHeaderSize);
    if (!payload.empty())
        std::memcpy(frame.data() + kFrameHeaderSize, payload.data(), payload.size());
    enqueue_frame(std::move(frame), phase);
}

void TcpTransport::write_frame(FrameType type, Phase phase,
                               std::span<const std::uint8_t> payload) {
    std::uint8_t header[kFrameHeaderSize];
    frame_header(header, type, phase, payload.size());
    // Gathered write: header and payload go out in one sendmsg (sharing a
    // TCP segment when they fit) without copying the payload — the HE
    // ciphertext messages are multiple megabytes. Partial writes resume
    // at the right offset across both buffers.
    const std::size_t total = kFrameHeaderSize + payload.size();
    std::size_t off = 0;
    while (off < total) {
        iovec iov[2];
        std::size_t cnt = 0;
        if (off < kFrameHeaderSize) {
            iov[cnt++] = {header + off, kFrameHeaderSize - off};
            if (!payload.empty())
                iov[cnt++] = {const_cast<std::uint8_t*>(payload.data()), payload.size()};
        } else {
            const std::size_t done = off - kFrameHeaderSize;
            iov[cnt++] = {const_cast<std::uint8_t*>(payload.data()) + done,
                          payload.size() - done};
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = cnt;
        const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail_send_errno();
        }
        off += static_cast<std::size_t>(n);
    }
}

void TcpTransport::send_bytes(std::span<const std::uint8_t> data) {
    require(is_open(), "tcp send: transport is closed");
    // Only queue-full backpressure is send wait (charged inside
    // enqueue_frame). Stats are recorded here on the protocol thread, so
    // ChannelStats ordering (flights) never depends on writer scheduling.
    send_frame(FrameType::kData, phase_, data);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.record(party_, phase_, data.size());
}

std::vector<std::uint8_t> TcpTransport::recv_bytes() {
    std::vector<std::uint8_t> payload;
    recv_bytes_into(payload);
    return payload;
}

Phase TcpTransport::recv_frame_into(std::vector<std::uint8_t>& out, FrameType expected) {
    require(is_open(), "tcp recv: transport is closed");
    require(!peer_shutdown_, "tcp recv: peer already ended the session");
    // Surface an asynchronous send failure here rather than waiting out
    // the recv timeout on a reply that can never come (our request died
    // in the writer).
    rethrow_writer_error();
    std::uint8_t header[kFrameHeaderSize];
    if (!read_all(fd_, header, sizeof(header)))
        throw PeerClosed("tcp recv: connection closed mid-protocol (no shutdown frame)");
    const std::uint32_t len = get_u32le(header);
    require(len <= kMaxFramePayload, "tcp recv: frame payload too large (corrupt header?)");
    require(header[6] == 0 && header[7] == 0, "tcp recv: nonzero reserved header bytes");
    const auto type = static_cast<FrameType>(header[4]);
    if (type == FrameType::kShutdown) {
        peer_shutdown_ = true;
        throw PeerClosed("tcp recv: peer ended the session");
    }
    if (type == FrameType::kBusy) {
        // Typed overload rejection (PROTOCOL.md §5): only legal from
        // party 0, only where the ARTIFACT frame would go (the session's
        // first frame — i.e. we are a client waiting for the artifact),
        // and only empty. Anywhere else it is a protocol violation, not
        // load shedding — a mid-protocol "busy" would misreport a
        // misbehaving peer as our own capacity problem.
        if (party_ == 1 && expected == FrameType::kArtifact && len == 0) {
            // No more frames follow (the peer closes right after), so
            // treat the stream as ended.
            peer_shutdown_ = true;
            throw ServerBusy{};
        }
        fail("tcp recv: illegal BUSY frame (wrong sender, position, or length)");
    }
    if (type != FrameType::kData && type != FrameType::kArtifact && type != FrameType::kKeys)
        fail("tcp recv: unknown frame type");
    if (type != expected) {
        if (expected == FrameType::kArtifact)
            fail("tcp recv: expected the session's artifact frame");
        if (expected == FrameType::kKeys)
            fail("tcp recv: expected a preprocessing KEYS frame");
        fail(type == FrameType::kArtifact
                 ? "tcp recv: unexpected artifact frame mid-protocol"
                 : "tcp recv: unexpected KEYS frame mid-protocol");
    }
    if (type == FrameType::kArtifact)
        require(len <= kMaxArtifactPayload,
                "tcp recv: artifact frame implausibly large (corrupt or hostile peer)");
    // §3: the phase tag on an ARTIFACT frame is ignored (bootstrap bytes
    // are never attributed to a protocol phase), so only DATA validates
    // it. KEYS frames are kPreprocess by definition (§4) — the receiver
    // forces the bucket rather than trusting the tag.
    Phase phase = Phase::kOnline;
    if (type == FrameType::kData) {
        require(header[5] < kNumPhases, "tcp recv: bad phase tag");
        phase = static_cast<Phase>(header[5]);
        // First DATA frame = the peer is past bootstrap and running the
        // protocol: the one-shot handshake deadline (if armed) retires
        // in favor of the steady recv timeout. Bootstrap-only frames
        // (ARTIFACT, KEYS) deliberately do NOT promote — a client that
        // fetches the artifact and then goes silent is still a
        // handshake-phase laggard and is shed on the short deadline.
        if (handshake_deadline_armed_) {
            handshake_deadline_armed_ = false;
            apply_recv_timeout(steady_recv_timeout_ms_);
        }
    } else if (type == FrameType::kKeys) {
        phase = Phase::kPreprocess;
    }

    out.resize(len);
    if (len > 0 && !read_all(fd_, out.data(), len))
        fail("tcp recv: connection closed mid-frame");
    return phase;
}

void TcpTransport::recv_bytes_into(std::vector<std::uint8_t>& out) {
    const auto t0 = std::chrono::steady_clock::now();
    const Phase phase = recv_frame_into(out, FrameType::kData);
    const double waited = seconds_since(t0);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.record(1 - party_, phase, out.size());
    waits_.add_recv(phase, waited);
}

void TcpTransport::send_artifact_bytes(std::span<const std::uint8_t> bytes) {
    require(is_open(), "tcp send: transport is closed");
    require(bytes.size() <= kMaxArtifactPayload, "tcp send: artifact too large for one frame");
    // Deliberately unmetered: artifact bytes are session setup, charged
    // to the handshake like the 8-byte hello, never to a protocol phase.
    send_frame(FrameType::kArtifact, phase_, bytes);
}

std::vector<std::uint8_t> TcpTransport::recv_artifact_bytes() {
    std::vector<std::uint8_t> payload;
    (void)recv_frame_into(payload, FrameType::kArtifact);
    return payload;
}

void TcpTransport::send_keys_bytes(std::span<const std::uint8_t> bytes) {
    require(is_open(), "tcp send: transport is closed");
    // A key batch is tens of MiB: rather than copy it into a queued
    // frame, let the writer drain every queued frame, then write this one
    // from the caller's buffer. Frame order is the call order either way.
    // The write blocks until the peer has read all but a socket buffer's
    // worth of the batch, so its time is send wait.
    flush_sends();
    const auto t0 = std::chrono::steady_clock::now();
    write_frame(FrameType::kKeys, Phase::kPreprocess, bytes);
    const double waited = seconds_since(t0);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.record(party_, Phase::kPreprocess, bytes.size());
    waits_.add_send(Phase::kPreprocess, waited);
}

std::vector<std::uint8_t> TcpTransport::recv_keys_bytes() {
    std::vector<std::uint8_t> payload;
    const auto t0 = std::chrono::steady_clock::now();
    const Phase phase = recv_frame_into(payload, FrameType::kKeys);
    const double waited = seconds_since(t0);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.record(1 - party_, phase, payload.size());
    waits_.add_recv(phase, waited);
    return payload;
}

ChannelStats TcpTransport::stats() const {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

WaitStats TcpTransport::wait_stats() const {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    return waits_;
}

// -------------------------------------------------------------- send queue ---

void TcpTransport::flush_sends() {
    std::unique_lock<std::mutex> lock(send_mutex_);
    double waited = 0.0;
    if (!send_queue_.empty() || writer_busy_) {
        const auto t0 = std::chrono::steady_clock::now();
        drain_cv_.wait(lock,
                       [&] { return writer_error_ || (send_queue_.empty() && !writer_busy_); });
        waited = seconds_since(t0);
    }
    if (writer_error_) std::rethrow_exception(writer_error_);
    lock.unlock();
    const std::lock_guard<std::mutex> slock(stats_mutex_);
    waits_.add_send(phase_, waited);
}

void TcpTransport::enqueue_frame(std::vector<std::uint8_t> frame, Phase phase) {
    std::unique_lock<std::mutex> lock(send_mutex_);
    if (writer_error_) std::rethrow_exception(writer_error_);
    double waited = 0.0;
    if (!send_queue_.empty() && queued_send_bytes_ + frame.size() > kMaxQueuedSendBytes) {
        const auto t0 = std::chrono::steady_clock::now();
        drain_cv_.wait(lock, [&] {
            return writer_error_ || send_queue_.empty() ||
                   queued_send_bytes_ + frame.size() <= kMaxQueuedSendBytes;
        });
        waited = seconds_since(t0);
        if (writer_error_) std::rethrow_exception(writer_error_);
    }
    queued_send_bytes_ += frame.size();
    send_queue_.push_back(std::move(frame));
    lock.unlock();
    send_cv_.notify_one();
    if (waited > 0.0) {
        const std::lock_guard<std::mutex> slock(stats_mutex_);
        waits_.add_send(phase, waited);
    }
}

void TcpTransport::writer_loop() {
    std::unique_lock<std::mutex> lock(send_mutex_);
    for (;;) {
        send_cv_.wait(lock, [&] { return writer_stop_ || !send_queue_.empty(); });
        if (send_queue_.empty()) {
            if (writer_stop_) return;  // graceful stop drains first
            continue;
        }
        std::vector<std::uint8_t> frame = std::move(send_queue_.front());
        send_queue_.pop_front();
        writer_busy_ = true;  // byte count stays up until the write lands
        lock.unlock();
        try {
            write_all(fd_, frame.data(), frame.size());
        } catch (...) {
            lock.lock();
            writer_error_ = std::current_exception();
            writer_busy_ = false;
            send_queue_.clear();
            queued_send_bytes_ = 0;
            drain_cv_.notify_all();
            return;
        }
        lock.lock();
        queued_send_bytes_ -= frame.size();
        writer_busy_ = false;
        drain_cv_.notify_all();
    }
}

void TcpTransport::stop_writer() noexcept {
    if (!writer_.joinable()) return;
    {
        const std::lock_guard<std::mutex> lock(send_mutex_);
        writer_stop_ = true;  // the writer drains the queue, then exits
    }
    send_cv_.notify_all();
    writer_.join();
}

void TcpTransport::rethrow_writer_error() {
    const std::lock_guard<std::mutex> lock(send_mutex_);
    if (writer_error_) std::rethrow_exception(writer_error_);
}

void TcpTransport::apply_recv_timeout(int milliseconds) {
    timeval tv{};
    tv.tv_sec = milliseconds / 1000;
    tv.tv_usec = (milliseconds % 1000) * 1000;
    require(::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0,
            "set_recv_timeout failed");
}

void TcpTransport::set_recv_timeout(int milliseconds) {
    require(is_open(), "set_recv_timeout: transport is closed");
    require(milliseconds >= 0, "set_recv_timeout: negative deadline");
    steady_recv_timeout_ms_ = milliseconds;
    // While a handshake deadline is armed the (stricter) bootstrap value
    // stays on the socket; the steady value takes over at promotion.
    if (!handshake_deadline_armed_) apply_recv_timeout(milliseconds);
}

void TcpTransport::arm_handshake_deadline(int milliseconds) {
    require(is_open(), "arm_handshake_deadline: transport is closed");
    require(milliseconds > 0, "arm_handshake_deadline: deadline must be positive");
    handshake_deadline_armed_ = true;
    apply_recv_timeout(milliseconds);
}

void TcpTransport::abort_connection() noexcept {
    // No goodbye frame, no drain: the peer's next read sees a raw EOF
    // (or a reset if it had data in flight) — indistinguishable from a
    // crashed process, which is the point. A writer stuck in send(2) is
    // unblocked by the shutdown BEFORE the fd closes (closing under an
    // in-flight write races fd reuse); its queue is dropped, not drained
    // — a hard abort sends nothing more.
    if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
    {
        const std::lock_guard<std::mutex> lock(send_mutex_);
        send_queue_.clear();
        queued_send_bytes_ = 0;
    }
    stop_writer();
    close_quietly(fd_);
}

void TcpTransport::close() noexcept {
    // Drain the queue (the goodbye must FOLLOW every data frame) and
    // retire the writer before writing the goodbye below; a writer that
    // already failed has nothing left to deliver.
    stop_writer();
    if (fd_ < 0) return;
    // Best-effort goodbye so the peer sees a clean end-of-session, then
    // half-close and drain: waiting for the peer's EOF (or goodbye)
    // avoids the RST-on-close race that can eat our last frame. The
    // drain is bounded in bytes as well as per-read time so a hostile
    // peer streaming garbage cannot pin the closing thread.
    try {
        write_frame(FrameType::kShutdown, phase_, {});
    } catch (...) {  // peer already gone; nothing to announce
    }
    (void)::shutdown(fd_, SHUT_WR);
    timeval tv{};
    tv.tv_sec = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::uint8_t sink[4096];
    std::size_t drained = 0;
    constexpr std::size_t kMaxDrainBytes = 1U << 20;
    for (;;) {
        const ssize_t n = ::recv(fd_, sink, sizeof(sink), 0);
        if (n <= 0) break;
        drained += static_cast<std::size_t>(n);
        if (drained >= kMaxDrainBytes) break;
    }
    close_quietly(fd_);
}

void TcpTransport::refuse_busy() noexcept {
    stop_writer();
    if (fd_ < 0) return;
    // Unmetered like the handshake: the session these frames would have
    // belonged to never starts, so there is no protocol phase to charge.
    try {
        write_frame(FrameType::kBusy, phase_, {});
        write_frame(FrameType::kShutdown, phase_, {});
    } catch (...) {  // peer already gone; nothing to refuse
    }
    (void)::shutdown(fd_, SHUT_WR);
    close_quietly(fd_);
}

// ------------------------------------------------------------- TcpListener ---

TcpListener::TcpListener(std::uint16_t port, const std::string& host) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail_errno("tcp listen: socket");
    const int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = make_addr(host, port);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        close_quietly(fd_);
        fail_errno("tcp listen: bind");
    }
    if (::listen(fd_, /*backlog=*/16) != 0) {
        close_quietly(fd_);
        fail_errno("tcp listen: listen");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    require(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
            "tcp listen: getsockname failed");
    port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<TcpTransport> TcpListener::accept(int timeout_ms) {
    auto transport = try_accept(timeout_ms);
    if (!transport) fail("tcp accept: timed out waiting for a client");
    return transport;
}

std::unique_ptr<TcpTransport> TcpListener::try_accept(int timeout_ms) {
    require(fd_ >= 0, "accept: listener is closed");
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
        const int r = ::poll(&pfd, 1, timeout_ms);
        if (r < 0) {
            if (errno == EINTR) continue;
            fail_errno("tcp accept: poll");
        }
        if (r == 0) return nullptr;
        break;
    }
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) fail_errno("tcp accept");
    return std::make_unique<TcpTransport>(client, /*party_id=*/0);
}

void TcpListener::close() noexcept { close_quietly(fd_); }

// ----------------------------------------------------------------- connect ---

namespace {

/// One non-blocking connect attempt bounded by `budget_ms`, so a host
/// that silently drops SYNs cannot stall past the caller's deadline the
/// way a blocking ::connect (kernel SYN-retry cycle, minutes) would.
/// Returns the connected fd, or -1 with errno set.
int try_connect_once(const sockaddr_in& addr, int budget_ms) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail_errno("tcp connect: socket");
    (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    int err = 0;
    if (rc != 0) {
        if (errno != EINPROGRESS) {
            err = errno;
            ::close(fd);
            errno = err;
            return -1;
        }
        pollfd pfd{fd, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, budget_ms);
        socklen_t len = sizeof(err);
        if (ready <= 0 ||
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
            if (ready == 0) err = ETIMEDOUT;
            if (err == 0) err = errno;
            ::close(fd);
            errno = err;
            return -1;
        }
    }
    // Back to blocking mode for the transport's send/recv loops.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    return fd;
}

}  // namespace

std::unique_ptr<TcpTransport> connect(const std::string& host, std::uint16_t port,
                                      int timeout_ms) {
    const sockaddr_in addr = make_addr(host, port);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        const int budget_ms = std::max(1, static_cast<int>(remaining.count()));
        const int fd = try_connect_once(addr, budget_ms);
        // The handshake inherits the caller's remaining deadline: the
        // server's hello only arrives once it accept()s us, which can be
        // a full serving cycle away on a busy sequential server.
        if (fd >= 0) return std::make_unique<TcpTransport>(fd, /*party_id=*/1, budget_ms);
        const int err = errno;
        // The server may simply not be up yet; keep knocking until the
        // deadline for the errors that mean "nobody listening (yet)".
        const bool retryable = err == ECONNREFUSED || err == ETIMEDOUT || err == EINTR ||
                               err == ECONNRESET || err == EAGAIN;
        if (!retryable || std::chrono::steady_clock::now() >= deadline) {
            // Typed so a retry policy can treat it like BUSY: no secret-
            // dependent message can have been sent over a connection that
            // never existed, so retrying is unconditionally safe.
            throw ConnectFailed("tcp connect to " + host + ":" + std::to_string(port) + ": " +
                                std::strerror(err));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

}  // namespace c2pi::net
