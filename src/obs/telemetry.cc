#include "obs/telemetry.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/format.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace asyncclock::obs {

// ---------------------------------------------------------------------
// TelemetrySnapshot rendering

std::string
TelemetrySnapshot::toJson() const
{
    // Splice the metrics document (itself a complete object) and the
    // publisher's additions into one top-level object.
    std::string inner = metrics.toJson();
    acAssert(inner.size() >= 2 && inner.front() == '{' &&
                 inner.back() == '}',
             "metrics JSON is not an object");
    JsonWriter w;
    w.beginObject();
    w.field("seq", seq);
    w.field("uptime_sec", uptimeSec);
    w.key("rates").beginObject();
    for (const auto &[name, r] : rates)
        w.field(name, r);
    w.endObject();
    w.endObject();
    std::string extras = w.str();
    // {extras...} + {inner...} -> {extras...,inner...}
    if (inner.size() == 2)
        return extras;
    extras.back() = ',';
    return extras + inner.substr(1);
}

std::string
TelemetrySnapshot::progressJson() const
{
    double opsPerSec = 0;
    for (const auto &[name, r] : rates) {
        if (name == "detector.ops_processed") {
            opsPerSec = r;
            break;
        }
    }
    JsonWriter w;
    w.beginObject();
    w.field("seq", seq);
    w.field("uptime_sec", uptimeSec);
    w.field("ops", progress.ops);
    w.field("ops_per_sec", opsPerSec);
    w.field("live_bytes", progress.liveBytes);
    w.field("peak_bytes", progress.peakBytes);
    w.field("races", progress.races);
    w.endObject();
    return w.str();
}

// ---------------------------------------------------------------------
// SnapshotPublisher

SnapshotPublisher::SnapshotPublisher(MetricsRegistry &reg,
                                     std::uint64_t intervalMs)
    : reg_(reg), interval_(intervalMs),
      start_(std::chrono::steady_clock::now()),
      lastPublish_(start_ - interval_)  // first publishIfDue fires
{
}

bool
SnapshotPublisher::due() const
{
    return std::chrono::steady_clock::now() - lastPublish_ >=
           interval_;
}

void
SnapshotPublisher::publish(const ProgressSample &progress)
{
    auto now = std::chrono::steady_clock::now();
    double dt = std::chrono::duration<double>(now - lastPublish_)
                    .count();
    auto snap = std::make_shared<TelemetrySnapshot>();
    snap->metrics = reg_.snapshot();
    snap->progress = progress;
    snap->seq = ++seq_;
    snap->uptimeSec =
        std::chrono::duration<double>(now - start_).count();
    // Rates: both counter lists are sorted by canonical name, so a
    // single merge walk pairs current values with previous ones.
    if (seq_ > 1 && dt > 0) {
        std::size_t j = 0;
        for (const auto &[name, v] : snap->metrics.counters) {
            while (j < prevCounters_.size() &&
                   prevCounters_[j].first < name)
                ++j;
            std::uint64_t prev =
                (j < prevCounters_.size() &&
                 prevCounters_[j].first == name)
                    ? prevCounters_[j].second
                    : 0;
            if (v > prev)
                snap->rates.emplace_back(
                    name, static_cast<double>(v - prev) / dt);
        }
    }
    prevCounters_ = snap->metrics.counters;
    lastPublish_ = now;
    std::lock_guard<std::mutex> lock(mu_);
    latest_ = std::move(snap);
}

std::shared_ptr<const TelemetrySnapshot>
SnapshotPublisher::latest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latest_;
}

// ---------------------------------------------------------------------
// HttpListener

namespace {

/** Reason phrase for the status codes this codebase emits. */
const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 201: return "Created";
      case 202: return "Accepted";
      case 204: return "No Content";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 409: return "Conflict";
      case 410: return "Gone";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default: return "Status";
    }
}

/** Append whatever is readable within a 2 s stall budget; false on
 * peer close/stall. */
bool
recvSome(int fd, std::string &buf)
{
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 2000) <= 0)
        return false;
    char tmp[4096];
    ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0)
        return false;
    buf.append(tmp, static_cast<std::size_t>(n));
    return true;
}

void
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
}

void
sendResponse(int fd, const HttpResponse &resp)
{
    std::string head = strf("HTTP/1.1 %d %s\r\n"
                            "Content-Type: %s\r\n"
                            "Content-Length: %zu\r\n"
                            "Connection: close\r\n",
                            resp.status, statusText(resp.status),
                            resp.contentType.c_str(),
                            resp.body.size());
    for (const auto &[k, v] : resp.headers)
        head += k + ": " + v + "\r\n";
    head += "\r\n";
    sendAll(fd, head + resp.body);
}

/** Case-insensitive header lookup in the raw header block; false
 * when absent. */
bool
findHeader(const std::string &headers, const char *name,
           std::string &value)
{
    std::string lower;
    lower.reserve(headers.size());
    for (char c : headers)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    std::string needle = std::string("\r\n") + name + ":";
    for (char &c : needle)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    std::size_t p = lower.find(needle);
    if (p == std::string::npos)
        return false;
    std::size_t vstart = p + needle.size();
    std::size_t vend = headers.find("\r\n", vstart);
    value = headers.substr(vstart, vend - vstart);
    while (!value.empty() && value.front() == ' ')
        value.erase(value.begin());
    while (!value.empty() &&
           (value.back() == ' ' || value.back() == '\r'))
        value.pop_back();
    return true;
}

} // namespace

std::string
HttpRequest::queryParam(const std::string &key) const
{
    std::size_t pos = 0;
    while (pos < query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        std::size_t eq = query.find('=', pos);
        if (eq != std::string::npos && eq < amp &&
            query.compare(pos, eq - pos, key) == 0)
            return query.substr(eq + 1, amp - eq - 1);
        pos = amp + 1;
    }
    return "";
}

HttpListener::HttpListener(Handler handler, unsigned handlerThreads,
                           std::size_t maxBodyBytes)
    : handler_(std::move(handler)),
      handlerThreads_(handlerThreads == 0 ? 1 : handlerThreads),
      maxBodyBytes_(maxBodyBytes)
{
}

HttpListener::~HttpListener()
{
    stop();
}

bool
HttpListener::start(std::uint16_t port)
{
    acAssert(listenFd_ < 0, "HttpListener started twice");
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        warn(strf("telemetry: socket() failed: %s",
                  std::strerror(errno)));
        return false;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(fd, 64) < 0) {
        warn(strf("telemetry: cannot listen on 127.0.0.1:%u: %s",
                  unsigned(port), std::strerror(errno)));
        ::close(fd);
        return false;
    }
    if (::pipe(wakeFds_) != 0) {
        warn(strf("telemetry: pipe() failed: %s",
                  std::strerror(errno)));
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) ==
        0)
        port_ = ntohs(addr.sin_port);
    listenFd_ = fd;
    stop_.store(false, std::memory_order_relaxed);
    conns_ = std::make_unique<support::BoundedQueue<int>>(64);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    for (unsigned i = 0; i < handlerThreads_; ++i)
        workers_.emplace_back([this] { handlerLoop(); });
    return true;
}

void
HttpListener::stop()
{
    if (listenFd_ < 0)
        return;
    stop_.store(true, std::memory_order_relaxed);
    // Signal-driven shutdown: one byte on the self-pipe wakes the
    // accept poll immediately — no timeout lap, no sacrificial
    // connection.
    char b = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeFds_[1], &b, 1);
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Closing the queue wakes handler threads; queued connections
    // are drained (answered) before the pop loop exits.
    conns_->close();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
    ::close(listenFd_);
    listenFd_ = -1;
    ::close(wakeFds_[0]);
    ::close(wakeFds_[1]);
    wakeFds_[0] = wakeFds_[1] = -1;
}

void
HttpListener::acceptLoop()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd pfds[2] = {{listenFd_, POLLIN, 0},
                          {wakeFds_[0], POLLIN, 0}};
        int rc = ::poll(pfds, 2, -1);
        if (rc <= 0)
            continue;
        if (pfds[1].revents & POLLIN)
            break;  // stop() wrote the wake byte
        if (!(pfds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        if (!conns_->push(fd))
            ::close(fd);
    }
}

void
HttpListener::handlerLoop()
{
    int fd = -1;
    while (conns_->pop(fd)) {
        handleConnection(fd);
        ::close(fd);
    }
}

void
HttpListener::handleConnection(int fd)
{
    // Read the request head (request line + headers).
    std::string raw;
    std::size_t headEnd;
    while ((headEnd = raw.find("\r\n\r\n")) == std::string::npos) {
        if (raw.size() > 64 * 1024 || !recvSome(fd, raw)) {
            requests_.fetch_add(1, std::memory_order_relaxed);
            sendResponse(fd, HttpResponse::text(
                                 400, "malformed request head\n"));
            return;
        }
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    std::string headers = raw.substr(0, headEnd + 2);

    HttpRequest req;
    std::size_t sp1 = headers.find(' ');
    std::size_t sp2 = sp1 == std::string::npos
                          ? std::string::npos
                          : headers.find(' ', sp1 + 1);
    std::size_t eol = headers.find("\r\n");
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        sp2 > eol) {
        sendResponse(fd,
                     HttpResponse::text(400, "bad request line\n"));
        return;
    }
    req.method = headers.substr(0, sp1);
    std::string target = headers.substr(sp1 + 1, sp2 - sp1 - 1);
    std::size_t qmark = target.find('?');
    req.path = target.substr(0, qmark);
    if (qmark != std::string::npos)
        req.query = target.substr(qmark + 1);

    // Body, when declared. curl sends "Expect: 100-continue" for
    // non-trivial uploads and stalls ~1 s without the interim
    // response, so answer it before reading.
    std::string value;
    std::uint64_t contentLength = 0;
    if (findHeader(headers, "Content-Length", value))
        contentLength = std::strtoull(value.c_str(), nullptr, 10);
    if (contentLength > maxBodyBytes_) {
        sendResponse(fd,
                     HttpResponse::text(413, "body too large\n"));
        return;
    }
    if (findHeader(headers, "Expect", value) &&
        value.find("100-continue") != std::string::npos)
        sendAll(fd, "HTTP/1.1 100 Continue\r\n\r\n");
    req.body = raw.substr(headEnd + 4);
    while (req.body.size() < contentLength) {
        std::string more;
        if (!recvSome(fd, more)) {
            // Mid-stream disconnect: the declared body never fully
            // arrived. No response target left — just drop it.
            return;
        }
        req.body += more;
    }
    req.body.resize(contentLength);

    sendResponse(fd, handler_(req));
}

// ---------------------------------------------------------------------
// TelemetryServer

TelemetryServer::TelemetryServer(SnapshotPublisher &pub)
    : pub_(pub),
      listener_([this](const HttpRequest &req) {
          return route(pub_, req);
      })
{
}

TelemetryServer::~TelemetryServer()
{
    stop();
}

bool
TelemetryServer::start(std::uint16_t port)
{
    return listener_.start(port);
}

void
TelemetryServer::stop()
{
    listener_.stop();
}

HttpResponse
TelemetryServer::route(SnapshotPublisher &pub, const HttpRequest &req)
{
    if (req.method != "GET")
        return HttpResponse::text(405, "only GET is supported\n");
    std::shared_ptr<const TelemetrySnapshot> snap = pub.latest();
    if (req.path == "/healthz") {
        JsonWriter w;
        w.beginObject();
        w.field("status", "ok");
        w.field("snapshots", snap ? snap->seq : std::uint64_t(0));
        w.endObject();
        return HttpResponse::json(200, w.str());
    }
    if (!snap) {
        // Live but nothing published yet: say so instead of serving
        // an empty document a scraper would ingest as "all zero".
        return HttpResponse::text(503, "no snapshot published yet\n");
    }
    if (req.path == "/metrics") {
        HttpResponse r;
        r.contentType = "text/plain; version=0.0.4; charset=utf-8";
        r.body = snap->metrics.toPrometheus();
        return r;
    }
    if (req.path == "/metrics.json")
        return HttpResponse::json(200, snap->toJson());
    if (req.path == "/progress")
        return HttpResponse::json(200, snap->progressJson());
    return HttpResponse::text(404,
                              "unknown path; try /metrics "
                              "/metrics.json /healthz /progress\n");
}

} // namespace asyncclock::obs
