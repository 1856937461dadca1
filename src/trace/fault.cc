#include "trace/fault.hh"

#include <chrono>
#include <cstdlib>
#include <istream>
#include <thread>

#include "support/format.hh"

namespace asyncclock::trace {

// ----- spec parsing ---------------------------------------------------

const char *
faultSpecHelp()
{
    return "  seed=N            RNG seed (default 1)\n"
           "  truncate=N        EOF after N bytes\n"
           "  flip=RATE         per-byte bit-flip probability\n"
           "  shortread=RATE    short-read probability\n"
           "  stall=US@BYTES    sleep US us every BYTES bytes\n"
           "  dup=RATE          duplicate-op probability\n"
           "  reorder=RATE      swap-with-successor probability\n"
           "  drop=RATE         drop-op probability\n"
           "  sess-disconnect=N client drops mid-body on chunk N\n"
           "  sess-dup=N        client re-creates its id on chunk N\n"
           "  sess-interleave=N client mixes dialects on chunk N\n";
}

namespace {

bool
parseRate(const std::string &v, double &out)
{
    char *end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return end && *end == '\0' && out >= 0.0 && out <= 1.0;
}

} // namespace

Expected<FaultConfig>
parseFaultSpec(const std::string &spec)
{
    FaultConfig cfg;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string pair = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty())
            continue;
        std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            return Status::error(ErrCode::ParseError,
                                 "fault spec entry missing '=': '" +
                                     pair + "'");
        }
        std::string key = pair.substr(0, eq);
        std::string val = pair.substr(eq + 1);
        auto bad = [&]() -> Status {
            return Status::error(ErrCode::ParseError,
                                 "bad fault spec value: '" + pair +
                                     "'");
        };
        if (key == "seed") {
            if (!parseU64(val, cfg.seed))
                return bad();
        } else if (key == "truncate") {
            if (!parseU64(val, cfg.truncateAfterBytes))
                return bad();
        } else if (key == "flip") {
            if (!parseRate(val, cfg.bitFlipRate))
                return bad();
        } else if (key == "shortread") {
            if (!parseRate(val, cfg.shortReadRate))
                return bad();
        } else if (key == "stall") {
            std::size_t at = val.find('@');
            if (at == std::string::npos ||
                !parseU64(val.substr(0, at), cfg.stallMicros) ||
                !parseU64(val.substr(at + 1), cfg.stallEveryBytes)) {
                return bad();
            }
        } else if (key == "dup") {
            if (!parseRate(val, cfg.dupRate))
                return bad();
        } else if (key == "reorder") {
            if (!parseRate(val, cfg.reorderRate))
                return bad();
        } else if (key == "drop") {
            if (!parseRate(val, cfg.dropRate))
                return bad();
        } else if (key == "sess-disconnect") {
            if (!parseU64(val, cfg.sessDisconnectAtChunk))
                return bad();
        } else if (key == "sess-dup") {
            if (!parseU64(val, cfg.sessDupCreateAt))
                return bad();
        } else if (key == "sess-interleave") {
            if (!parseU64(val, cfg.sessInterleaveAtChunk))
                return bad();
        } else {
            return Status::error(ErrCode::ParseError,
                                 "unknown fault spec key: '" + key +
                                     "'");
        }
    }
    return cfg;
}

// ----- FaultyStreamBuf ------------------------------------------------

FaultyStreamBuf::FaultyStreamBuf(std::istream &under,
                                 const FaultConfig &cfg)
    : under_(under), cfg_(cfg), rng_(cfg.seed)
{
    nextStallAt_ = cfg_.stallEveryBytes;
    setg(buf_, buf_, buf_);  // empty: first read underflows
}

FaultyStreamBuf::int_type
FaultyStreamBuf::underflow()
{
    if (gptr() < egptr())
        return traits_type::to_int_type(*gptr());
    if (cfg_.truncateAfterBytes > 0 &&
        pos_ >= cfg_.truncateAfterBytes) {
        return traits_type::eof();
    }
    std::size_t want = kBufSize;
    if (cfg_.shortReadRate > 0 && rng_.chance(cfg_.shortReadRate))
        want = static_cast<std::size_t>(rng_.range(1, 64));
    if (cfg_.truncateAfterBytes > 0) {
        std::uint64_t left = cfg_.truncateAfterBytes - pos_;
        if (left < want)
            want = static_cast<std::size_t>(left);
    }
    under_.read(buf_, static_cast<std::streamsize>(want));
    std::size_t got = static_cast<std::size_t>(under_.gcount());
    if (got == 0)
        return traits_type::eof();
    if (cfg_.bitFlipRate > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            if (rng_.chance(cfg_.bitFlipRate)) {
                buf_[i] = static_cast<char>(
                    static_cast<unsigned char>(buf_[i]) ^
                    (1u << rng_.below(8)));
                ++flips_;
            }
        }
    }
    pos_ += got;
    if (cfg_.stallEveryBytes > 0 && pos_ >= nextStallAt_) {
        nextStallAt_ += cfg_.stallEveryBytes;
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.stallMicros));
    }
    setg(buf_, buf_, buf_ + got);
    return traits_type::to_int_type(*gptr());
}

FaultyStreamBuf::pos_type
FaultyStreamBuf::seekoff(off_type off, std::ios_base::seekdir dir,
                         std::ios_base::openmode which)
{
    if (off == 0 && dir == std::ios_base::cur &&
        (which & std::ios_base::in)) {
        return static_cast<pos_type>(
            pos_ - static_cast<std::uint64_t>(egptr() - gptr()));
    }
    return pos_type(off_type(-1));
}

// ----- FaultInjectingSource -------------------------------------------

FaultInjectingSource::FaultInjectingSource(TraceSource &inner,
                                           const FaultConfig &cfg)
    : inner_(inner), cfg_(cfg), rng_(cfg.seed ^ 0x0fau)
{
}

bool
FaultInjectingSource::next(Operation &op)
{
    if (haveDup_) {
        op = dupOp_;
        haveDup_ = false;
        return true;
    }
    if (haveHeld_) {
        op = held_;
        haveHeld_ = false;
    } else {
        for (;;) {
            if (!inner_.next(op))
                return false;
            if (cfg_.dropRate > 0 && rng_.chance(cfg_.dropRate)) {
                ++drops_;
                continue;
            }
            break;
        }
        if (cfg_.reorderRate > 0 && rng_.chance(cfg_.reorderRate)) {
            Operation successor;
            if (inner_.next(successor)) {
                held_ = op;
                haveHeld_ = true;
                op = successor;
                ++reorders_;
            }
        }
    }
    if (cfg_.dupRate > 0 && rng_.chance(cfg_.dupRate)) {
        dupOp_ = op;
        haveDup_ = true;
        ++dups_;
    }
    return true;
}

} // namespace asyncclock::trace
