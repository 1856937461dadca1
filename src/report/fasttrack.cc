#include "report/fasttrack.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

namespace asyncclock::report {

namespace {

// Fixed-width little-endian scalar I/O. The checkpoint format favors
// dead-simple framing over compactness — checkpoints are transient
// files, not interchange.

void
putU64(std::ostream &out, std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.write(buf, 8);
}

bool
getU64(std::istream &in, std::uint64_t &v)
{
    char buf[8];
    in.read(buf, 8);
    if (in.gcount() != 8)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf[i]))
             << (8 * i);
    return true;
}

void
putU32(std::ostream &out, std::uint32_t v)
{
    putU64(out, v);
}

bool
getU32(std::istream &in, std::uint32_t &v)
{
    std::uint64_t w;
    if (!getU64(in, w) || w > 0xffffffffull)
        return false;
    v = static_cast<std::uint32_t>(w);
    return true;
}

void
putAccess(std::ostream &out, const Access &a)
{
    putU32(out, a.op);
    putU32(out, a.epoch.chain);
    putU32(out, a.epoch.tick);
    putU32(out, a.site);
    putU32(out, a.task.raw());
    putU64(out, a.isWrite ? 1 : 0);
}

bool
getAccess(std::istream &in, Access &a)
{
    std::uint32_t raw = 0;
    std::uint64_t w = 0;
    if (!getU32(in, a.op) || !getU32(in, a.epoch.chain) ||
        !getU32(in, a.epoch.tick) || !getU32(in, a.site) ||
        !getU32(in, raw) || !getU64(in, w)) {
        return false;
    }
    a.task = (raw & 0x80000000u)
                 ? trace::Task::event(raw & ~0x80000000u)
                 : trace::Task::thread(raw);
    a.isWrite = w != 0;
    return true;
}

Status
truncated()
{
    return Status::error(ErrCode::Truncated,
                         "truncated checker state");
}

} // namespace

void
FastTrackChecker::report(trace::VarId var, const Access &prev,
                         const Access &cur)
{
    races_.push_back({var, prev.op, cur.op, prev.site, cur.site,
                      prev.task, cur.task, prev.isWrite, cur.isWrite});
}

void
FastTrackChecker::onAccess(trace::VarId var, const Access &access,
                           const clock::VectorClock &vc)
{
    if (vars_.size() <= var)
        vars_.resize(var + 1);
    VarState &st = vars_[var];

    if (access.isWrite) {
        // Write-write check.
        if (!vc.knows(st.write))
            report(var, st.lastWrite, access);
        // Read-write check.
        if (st.shared) {
            // Race iff some read epoch is not known, i.e. the read
            // clock is not below vc (short-circuits on the first
            // unordered entry); the reported lastRead is the most
            // recent read.
            if (!st.readVC.leq(vc))
                report(var, st.lastRead, access);
        } else if (!vc.knows(st.read)) {
            report(var, st.lastRead, access);
        }
        // FastTrack write: collapse back to exclusive epochs.
        st.write = access.epoch;
        st.lastWrite = access;
        st.read = clock::Epoch{};
        st.shared = false;
        st.readVC.clear();
        return;
    }

    // Read: write-read check.
    if (!vc.knows(st.write))
        report(var, st.lastWrite, access);

    if (st.shared) {
        st.readVC.raise(access.epoch.chain, access.epoch.tick);
        st.lastRead = access;
        return;
    }
    if (st.read.tick == 0 || st.read.chain == access.epoch.chain ||
        vc.knows(st.read)) {
        // Same-epoch/ordered read: stay in cheap exclusive mode.
        st.read = access.epoch;
        st.lastRead = access;
        return;
    }
    // Concurrent reads: become read-shared.
    st.shared = true;
    st.readVC.raise(st.read.chain, st.read.tick);
    st.readVC.raise(access.epoch.chain, access.epoch.tick);
    st.lastRead = access;
}

Status
FastTrackChecker::saveState(std::ostream &out) const
{
    putU64(out, vars_.size());
    for (const VarState &st : vars_) {
        putU32(out, st.write.chain);
        putU32(out, st.write.tick);
        putU32(out, st.read.chain);
        putU32(out, st.read.tick);
        putU64(out, st.shared ? 1 : 0);
        putU32(out, st.readVC.size());
        // Canonical entry order: the clock's iteration order reflects
        // raise() history, which a save/load/save cycle would not
        // reproduce. Sorting makes equal clocks serialize identically.
        std::vector<std::pair<clock::ChainId, clock::Tick>> entries;
        entries.reserve(st.readVC.size());
        st.readVC.forEach(
            [&entries](clock::ChainId c, const clock::Tick &t) {
                entries.emplace_back(c, t);
            });
        std::sort(entries.begin(), entries.end());
        for (const auto &[c, t] : entries) {
            putU32(out, c);
            putU32(out, t);
        }
        putAccess(out, st.lastWrite);
        putAccess(out, st.lastRead);
    }
    putU64(out, races_.size());
    for (const RaceReport &r : races_) {
        putU32(out, r.var);
        putU32(out, r.prevOp);
        putU32(out, r.curOp);
        putU32(out, r.prevSite);
        putU32(out, r.curSite);
        putU32(out, r.prevTask.raw());
        putU32(out, r.curTask.raw());
        putU64(out, (r.prevWrite ? 1 : 0) | (r.curWrite ? 2 : 0));
    }
    if (!out)
        return Status::error(ErrCode::IoError,
                             "write failed while saving checker state");
    return Status::ok();
}

Status
FastTrackChecker::loadState(std::istream &in)
{
    std::vector<VarState> vars;
    std::vector<RaceReport> races;
    std::uint64_t nVars = 0;
    if (!getU64(in, nVars))
        return truncated();
    // Sanity bound: a var table larger than the stream could possibly
    // encode means a corrupt count, not a huge trace.
    if (nVars > (1ull << 32))
        return Status::error(ErrCode::Corrupt,
                             "unreasonable var count in checker state");
    vars.resize(nVars);
    for (VarState &st : vars) {
        std::uint64_t shared = 0;
        std::uint32_t vcEntries = 0;
        if (!getU32(in, st.write.chain) || !getU32(in, st.write.tick) ||
            !getU32(in, st.read.chain) || !getU32(in, st.read.tick) ||
            !getU64(in, shared) || !getU32(in, vcEntries)) {
            return truncated();
        }
        st.shared = shared != 0;
        for (std::uint32_t i = 0; i < vcEntries; ++i) {
            std::uint32_t c = 0, t = 0;
            if (!getU32(in, c) || !getU32(in, t))
                return truncated();
            st.readVC.raise(c, t);
        }
        if (!getAccess(in, st.lastWrite) || !getAccess(in, st.lastRead))
            return truncated();
    }
    std::uint64_t nRaces = 0;
    if (!getU64(in, nRaces))
        return truncated();
    if (nRaces > (1ull << 32))
        return Status::error(
            ErrCode::Corrupt,
            "unreasonable race count in checker state");
    races.resize(nRaces);
    for (RaceReport &r : races) {
        std::uint32_t prevRaw = 0, curRaw = 0;
        std::uint64_t w = 0;
        if (!getU32(in, r.var) || !getU32(in, r.prevOp) ||
            !getU32(in, r.curOp) || !getU32(in, r.prevSite) ||
            !getU32(in, r.curSite) || !getU32(in, prevRaw) ||
            !getU32(in, curRaw) || !getU64(in, w)) {
            return truncated();
        }
        r.prevTask = (prevRaw & 0x80000000u)
                         ? trace::Task::event(prevRaw & ~0x80000000u)
                         : trace::Task::thread(prevRaw);
        r.curTask = (curRaw & 0x80000000u)
                        ? trace::Task::event(curRaw & ~0x80000000u)
                        : trace::Task::thread(curRaw);
        r.prevWrite = (w & 1) != 0;
        r.curWrite = (w & 2) != 0;
    }
    vars_ = std::move(vars);
    races_ = std::move(races);
    return Status::ok();
}

std::uint64_t
FastTrackChecker::byteSize() const
{
    std::uint64_t total = vars_.capacity() * sizeof(VarState);
    for (const auto &st : vars_)
        total += st.readVC.byteSize();
    return total;
}

} // namespace asyncclock::report
