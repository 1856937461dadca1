#include "report/checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/format.hh"

namespace asyncclock::report {

const char kCheckpointMagic[4] = {'A', 'C', 'C', 'P'};

namespace {

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

} // namespace

Expected<CheckpointMeta>
traceIdentity(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::error(ErrCode::IoError,
                             "cannot open trace for hashing: " + path);
    CheckpointMeta meta;
    std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64 offset
    char buf[65536];
    for (;;) {
        in.read(buf, sizeof(buf));
        std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        for (std::streamsize i = 0; i < got; ++i) {
            hash ^= static_cast<unsigned char>(buf[i]);
            hash *= 0x100000001b3ull;
        }
        meta.traceBytes += static_cast<std::uint64_t>(got);
    }
    if (in.bad())
        return Status::error(ErrCode::IoError,
                             "read failed while hashing: " + path);
    meta.traceHash = hash;
    return meta;
}

Status
saveCheckpoint(const std::string &path, const CheckpointMeta &meta,
               const FastTrackChecker &checker)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            return Status::error(ErrCode::IoError,
                                 "cannot open checkpoint for write: " +
                                     tmp);
        out.write(kCheckpointMagic, 4);
        out.put(static_cast<char>(kCheckpointVersion));
        out.put(0);  // the retired clock-backend byte
        out.put(static_cast<char>(meta.modelTag));
        putU64(out, meta.opsProcessed);
        putU64(out, meta.accessesChecked);
        putU64(out, meta.traceBytes);
        putU64(out, meta.traceHash);
        if (Status st = checker.saveState(out); !st)
            return st;
        out.flush();
        if (!out)
            return Status::error(ErrCode::IoError,
                                 "write failed: " + tmp);
    }
    // Publish atomically: a kill before the rename leaves the
    // previous checkpoint; after it, the new one. Never a torn file
    // under the final name.
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return Status::error(ErrCode::IoError,
                             "cannot rename " + tmp + " to " + path);
    return Status::ok();
}

Expected<CheckpointMeta>
loadCheckpoint(const std::string &path, FastTrackChecker &checker)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::error(ErrCode::IoError,
                             "cannot open checkpoint: " + path);
    char magic[4];
    in.read(magic, 4);
    if (in.gcount() != 4 ||
        std::memcmp(magic, kCheckpointMagic, 4) != 0) {
        return Status::error(ErrCode::ParseError,
                             "not a checkpoint file: " + path);
    }
    int version = in.get();
    if (version < 1 || version > kCheckpointVersion) {
        return Status::error(
            ErrCode::Unsupported,
            strf("unsupported checkpoint version %d (expected <= %d)",
                 version, kCheckpointVersion));
    }
    CheckpointMeta meta;
    if (version >= 2) {
        // Retired clock-backend tag: older builds wrote 0-3 (sparse,
        // cow, tree, hybrid; hybrid only from v4). Entries were always
        // serialized in canonical sparse form, so every valid tag
        // loads the same way; anything else is corruption.
        int maxTag = version >= 4 ? 4 : 3;
        int tag = in.get();
        if (tag < 0 || tag >= maxTag) {
            return Status::error(
                ErrCode::Corrupt,
                strf("bad clock-backend tag %d in checkpoint", tag));
        }
    }
    if (version >= 3) {
        int tag = in.get();
        if (tag < 0 || tag >= kModelTagCount) {
            return Status::error(
                ErrCode::Corrupt,
                strf("bad causality-model tag %d in checkpoint", tag));
        }
        meta.modelTag = static_cast<std::uint8_t>(tag);
    }
    if (!getU64(in, meta.opsProcessed) ||
        !getU64(in, meta.accessesChecked) ||
        !getU64(in, meta.traceBytes) || !getU64(in, meta.traceHash)) {
        return Status::error(ErrCode::Truncated,
                             "truncated checkpoint header: " + path);
    }
    if (Status st = checker.loadState(in); !st)
        return st;
    return meta;
}

} // namespace asyncclock::report
