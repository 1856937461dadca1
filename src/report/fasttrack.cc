#include "report/fasttrack.hh"

namespace asyncclock::report {

void
FastTrackChecker::report(trace::VarId var, const Access &prev,
                         const Access &cur)
{
    races_.push_back({var, prev.op, cur.op, prev.site, cur.site,
                      prev.task, cur.task, prev.isWrite, cur.isWrite});
}

void
FastTrackChecker::raiseRead(VarState &st, const clock::Epoch &e)
{
    std::uint64_t before = st.readVC.byteSize();
    st.readVC.raise(e.chain, e.tick);
    readBytes_ = readBytes_ - before + st.readVC.byteSize();
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
        raiseRead(st, access.epoch);
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
    raiseRead(st, st.read);
    raiseRead(st, access.epoch);
    st.lastRead = access;
}

std::uint64_t
FastTrackChecker::byteSize() const
{
    return vars_.capacity() * sizeof(VarState) + readBytes_;
}

std::uint64_t
FastTrackChecker::walkByteSize() const
{
    std::uint64_t total = vars_.capacity() * sizeof(VarState);
    for (const auto &st : vars_)
        total += st.readVC.byteSize();
    return total;
}

} // namespace asyncclock::report
