#include "obs/progress.hh"

#include "support/format.hh"

namespace asyncclock::obs {

ProgressMeter::ProgressMeter(std::uint64_t everyOps, std::FILE *out)
    : everyOps_(everyOps), next_(everyOps), out_(out),
      lastTime_(std::chrono::steady_clock::now())
{
}

std::string
ProgressMeter::format(const ProgressSample &sample,
                      double opsPerSec) const
{
    return strf(
        "[progress] %s ops  %8.0f ops/s  live %s (peak %s)  races %s",
        withCommas(sample.ops).c_str(), opsPerSec,
        humanBytes(sample.liveBytes).c_str(),
        humanBytes(sample.peakBytes).c_str(),
        withCommas(sample.races).c_str());
}

void
ProgressMeter::report(const ProgressSample &sample)
{
    auto now = std::chrono::steady_clock::now();
    double secs =
        std::chrono::duration<double>(now - lastTime_).count();
    double opsPerSec =
        secs > 0 ? double(sample.ops - lastOps_) / secs : 0;
    std::fprintf(out_, "%s\n", format(sample, opsPerSec).c_str());
    std::fflush(out_);
    lastTime_ = now;
    lastOps_ = sample.ops;
    next_ = sample.ops + everyOps_;
}

} // namespace asyncclock::obs
