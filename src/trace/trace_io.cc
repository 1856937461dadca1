#include "trace/trace_io.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "support/format.hh"
#include "support/logging.hh"

namespace asyncclock::trace {

namespace {

constexpr const char *kTextHeader = "asyncclock-trace v1";
/** Async-dialect header; looper traces keep the v1 header unchanged. */
constexpr const char *kTextHeaderAsync = "asyncclock-trace v2 async";

const char *
threadKindName(ThreadKind k)
{
    switch (k) {
      case ThreadKind::Worker: return "worker";
      case ThreadKind::Looper: return "looper";
      case ThreadKind::Binder: return "binder";
    }
    return "?";
}

const char *
frameName(Frame f)
{
    switch (f) {
      case Frame::User: return "user";
      case Frame::Framework: return "framework";
      case Frame::Library: return "library";
    }
    return "?";
}

std::string
taskToken(Task task)
{
    return strf("%c%u", task.isEvent() ? 'E' : 'T', task.index());
}

std::string
attrsToken(const SendAttrs &attrs)
{
    char kind = attrs.kind == SendKind::Delayed ? 'D'
              : attrs.kind == SendKind::AtTime ? 'T' : 'F';
    return strf("%c%c%llu", kind, attrs.async ? 'A' : 'S',
                (unsigned long long)attrs.time);
}

bool
parseTask(const std::string &tok, Task &task)
{
    if (tok.size() < 2 || (tok[0] != 'E' && tok[0] != 'T'))
        return false;
    std::uint32_t idx =
        static_cast<std::uint32_t>(std::stoul(tok.substr(1)));
    task = tok[0] == 'E' ? Task::event(idx) : Task::thread(idx);
    return true;
}

bool
parseAttrs(const std::string &tok, SendAttrs &attrs)
{
    if (tok.size() < 3)
        return false;
    switch (tok[0]) {
      case 'D': attrs.kind = SendKind::Delayed; break;
      case 'T': attrs.kind = SendKind::AtTime; break;
      case 'F': attrs.kind = SendKind::AtFront; break;
      default: return false;
    }
    if (tok[1] != 'A' && tok[1] != 'S')
        return false;
    attrs.async = tok[1] == 'A';
    attrs.time = std::stoull(tok.substr(2));
    return true;
}

/**
 * One-line parser shared by the materializing reader and the
 * streaming source. Entity lines are applied to @p entities; op lines
 * set @p isOp and fill @p op (the caller routes the op to its trace or
 * its consumer). On failure, @p error gets "line N: <message>
 * ('<token>')" naming the offending token.
 */
class TextLineParser
{
  public:
    explicit TextLineParser(EntitySink &entities,
                            Dialect dialect = Dialect::Looper)
        : entities_(entities), dialect_(dialect)
    {
    }

    bool
    parseLine(const std::string &line, std::size_t lineNo, bool &isOp,
              Operation &op, std::string &error)
    {
        isOp = false;
        if (line.empty() || line[0] == '#')
            return true;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        auto fail = [&](const std::string &msg,
                        const std::string &token) {
            error = strf("line %zu: %s ('%s')", lineNo, msg.c_str(),
                         token.c_str());
            return false;
        };
        try {
            if (tag == "thread") {
                std::uint32_t id;
                std::string kind, queueTok, name;
                ls >> id >> kind >> queueTok >> name;
                if (ls.fail())
                    return fail("bad thread line", line);
                ThreadKind tk = kind == "worker" ? ThreadKind::Worker
                              : kind == "looper" ? ThreadKind::Looper
                              : ThreadKind::Binder;
                QueueId q = queueTok == "-"
                                ? kInvalidId
                                : static_cast<QueueId>(
                                      std::stoul(queueTok));
                ThreadId got = entities_.declThread(
                    tk, name == "-" ? "" : name, q);
                if (got != id)
                    return fail("thread ids must be dense",
                                strf("%u", id));
            } else if (tag == "queue") {
                std::uint32_t id;
                std::string kind, looperTok, name;
                ls >> id >> kind >> looperTok >> name;
                if (ls.fail())
                    return fail("bad queue line", line);
                QueueId got = entities_.declQueue(
                    kind == "looper" ? QueueKind::Looper
                                     : QueueKind::Binder,
                    name == "-" ? "" : name);
                if (got != id)
                    return fail("queue ids must be dense",
                                strf("%u", id));
                if (looperTok != "-") {
                    entities_.bindLooper(
                        got,
                        static_cast<ThreadId>(std::stoul(looperTok)));
                }
            } else if (tag == "events") {
                std::uint32_t n;
                ls >> n;
                if (ls.fail())
                    return fail("bad events line", line);
                for (std::uint32_t i = 0; i < n; ++i)
                    entities_.declEvent();
            } else if (tag == "var") {
                std::uint32_t id;
                std::string label, name;
                ls >> id >> label >> name;
                if (ls.fail())
                    return fail("bad var line", line);
                SeedLabel sl = SeedLabel::None;
                for (int l = 0; l <= 5; ++l) {
                    if (label ==
                        seedLabelName(static_cast<SeedLabel>(l))) {
                        sl = static_cast<SeedLabel>(l);
                        break;
                    }
                }
                VarId got =
                    entities_.declVar(name == "-" ? "" : name, sl);
                if (got != id)
                    return fail("var ids must be dense",
                                strf("%u", id));
            } else if (tag == "handle") {
                std::uint32_t id;
                std::string name;
                ls >> id >> name;
                if (ls.fail())
                    return fail("bad handle line", line);
                HandleId got =
                    entities_.declHandle(name == "-" ? "" : name);
                if (got != id)
                    return fail("handle ids must be dense",
                                strf("%u", id));
            } else if (tag == "site") {
                std::uint32_t id;
                std::string frame, groupTok, name;
                ls >> id >> frame >> groupTok >> name;
                if (ls.fail())
                    return fail("bad site line", line);
                Frame f = frame == "user" ? Frame::User
                        : frame == "framework" ? Frame::Framework
                        : Frame::Library;
                std::uint32_t g = groupTok == "-"
                                      ? kInvalidId
                                      : static_cast<std::uint32_t>(
                                            std::stoul(groupTok));
                SiteId got =
                    entities_.declSite(name == "-" ? "" : name, f, g);
                if (got != id)
                    return fail("site ids must be dense",
                                strf("%u", id));
            } else if (tag == "op") {
                std::string kindTok, taskTok;
                ls >> kindTok >> taskTok;
                if (ls.fail())
                    return fail("bad op line", line);
                op = Operation();
                if (!parseTask(taskTok, op.task))
                    return fail("bad task token", taskTok);
                bool found = false;
                // Async-dialect kinds (12..15) are only words of an
                // async trace; in a looper trace they stay unknown.
                const int maxKind =
                    dialect_ == Dialect::Async ? 15 : 11;
                for (int k = 0; k <= maxKind; ++k) {
                    if (kindTok == opKindName(static_cast<OpKind>(k))) {
                        op.kind = static_cast<OpKind>(k);
                        found = true;
                        break;
                    }
                }
                if (!found)
                    return fail("unknown op kind", kindTok);
                std::string tok;
                switch (op.kind) {
                  case OpKind::ThreadBegin:
                  case OpKind::ThreadEnd:
                  case OpKind::EventEnd:
                    break;
                  case OpKind::EventBegin:
                  case OpKind::Fork:
                  case OpKind::Join:
                  case OpKind::Signal:
                  case OpKind::Wait:
                    ls >> op.target;
                    break;
                  case OpKind::Read:
                  case OpKind::Write:
                    ls >> op.target >> tok;
                    op.site = tok == "-" ? kInvalidId
                                         : static_cast<SiteId>(
                                               std::stoul(tok));
                    break;
                  case OpKind::Send:
                    ls >> op.target >> op.event >> tok;
                    if (!parseAttrs(tok, op.attrs))
                        return fail("bad send attrs", tok);
                    break;
                  case OpKind::RemoveEvent:
                    ls >> op.event;
                    break;
                  case OpKind::TaskSpawn:
                    ls >> op.event >> op.target;
                    break;
                  case OpKind::TaskAwait:
                  case OpKind::TaskCancel:
                    ls >> op.event;
                    break;
                  case OpKind::ScopeEnd:
                    ls >> op.target;
                    break;
                }
                std::string at;
                ls >> at;
                if (ls.fail() || at.empty() || at[0] != '@')
                    return fail("missing @vtime", at);
                op.vtime = std::stoull(at.substr(1));
                isOp = true;
            } else {
                return fail("unknown tag", tag);
            }
        } catch (const std::exception &e) {
            error = strf("line %zu: parse error: %s", lineNo, e.what());
            return false;
        }
        return true;
    }

  private:
    EntitySink &entities_;
    Dialect dialect_;
};

/** Event ids index the event table on both the materializing and the
 * streaming path; reject out-of-range references instead of crashing.
 * Returns the offending token, or nullopt-style empty string if ok. */
std::string
checkOpEventRange(const Operation &op, std::uint64_t numEvents)
{
    if (op.task.isEvent() && op.task.index() >= numEvents)
        return strf("E%u", op.task.index());
    if ((op.kind == OpKind::Send || op.kind == OpKind::RemoveEvent ||
         op.kind == OpKind::TaskSpawn || op.kind == OpKind::TaskAwait ||
         op.kind == OpKind::TaskCancel) &&
        op.event >= numEvents) {
        return strf("%u", op.event);
    }
    return "";
}

/** Is this a line whose skip would shift positional entity ids?
 * Those must hard-fail; op and unknown-tag lines are skippable. */
bool
isEntityLine(const std::string &line)
{
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    return tag == "thread" || tag == "queue" || tag == "events" ||
           tag == "var" || tag == "handle" || tag == "site";
}

} // namespace

void
writeTrace(const Trace &tr, std::ostream &out)
{
    out << (tr.dialect() == Dialect::Async ? kTextHeaderAsync
                                           : kTextHeader)
        << '\n';
    for (std::size_t i = 0; i < tr.threads().size(); ++i) {
        const ThreadInfo &t = tr.threads()[i];
        out << "thread " << i << ' ' << threadKindName(t.kind) << ' ';
        if (t.queue == kInvalidId)
            out << '-';
        else
            out << t.queue;
        out << ' ' << (t.name.empty() ? "-" : t.name) << '\n';
    }
    for (std::size_t i = 0; i < tr.queues().size(); ++i) {
        const QueueInfo &q = tr.queues()[i];
        out << "queue " << i << ' '
            << (q.kind == QueueKind::Looper ? "looper" : "binder")
            << ' ';
        if (q.looper == kInvalidId)
            out << '-';
        else
            out << q.looper;
        out << ' ' << (q.name.empty() ? "-" : q.name) << '\n';
    }
    out << "events " << tr.events().size() << '\n';
    for (std::size_t i = 0; i < tr.vars().size(); ++i) {
        const VarInfo &v = tr.vars()[i];
        out << "var " << i << ' ' << seedLabelName(v.seedLabel) << ' '
            << (v.name.empty() ? "-" : v.name) << '\n';
    }
    for (std::size_t i = 0; i < tr.handles().size(); ++i) {
        const HandleInfo &h = tr.handles()[i];
        out << "handle " << i << ' '
            << (h.name.empty() ? "-" : h.name) << '\n';
    }
    for (std::size_t i = 0; i < tr.sites().size(); ++i) {
        const SiteInfo &s = tr.sites()[i];
        out << "site " << i << ' ' << frameName(s.frame) << ' ';
        if (s.commGroup == kInvalidId)
            out << '-';
        else
            out << s.commGroup;
        out << ' ' << (s.name.empty() ? "-" : s.name) << '\n';
    }
    for (const Operation &op : tr.ops()) {
        out << "op " << opKindName(op.kind) << ' '
            << taskToken(op.task);
        switch (op.kind) {
          case OpKind::ThreadBegin:
          case OpKind::ThreadEnd:
          case OpKind::EventEnd:
            break;
          case OpKind::EventBegin:
            out << ' ' << op.target;
            break;
          case OpKind::Read:
          case OpKind::Write:
            out << ' ' << op.target << ' ';
            if (op.site == kInvalidId)
                out << '-';
            else
                out << op.site;
            break;
          case OpKind::Fork:
          case OpKind::Join:
          case OpKind::Signal:
          case OpKind::Wait:
            out << ' ' << op.target;
            break;
          case OpKind::Send:
            out << ' ' << op.target << ' ' << op.event << ' '
                << attrsToken(op.attrs);
            break;
          case OpKind::RemoveEvent:
            out << ' ' << op.event;
            break;
          case OpKind::TaskSpawn:
            out << ' ' << op.event << ' ' << op.target;
            break;
          case OpKind::TaskAwait:
          case OpKind::TaskCancel:
            out << ' ' << op.event;
            break;
          case OpKind::ScopeEnd:
            out << ' ' << op.target;
            break;
        }
        out << " @" << op.vtime << '\n';
    }
}

std::string
writeTraceToString(const Trace &tr)
{
    std::ostringstream ss;
    writeTrace(tr, ss);
    return ss.str();
}

bool
readTrace(std::istream &in, Trace &tr, std::string &error)
{
    tr = Trace();
    std::string line;
    if (!std::getline(in, line) ||
        (line != kTextHeader && line != kTextHeaderAsync)) {
        error = strf("line 1: bad header ('%s')", line.c_str());
        return false;
    }
    tr.setDialect(line == kTextHeaderAsync ? Dialect::Async
                                           : Dialect::Looper);
    TextLineParser parser(tr, tr.dialect());
    std::size_t lineNo = 1;
    while (std::getline(in, line)) {
        ++lineNo;
        bool isOp = false;
        Operation op;
        if (!parser.parseLine(line, lineNo, isOp, op, error)) {
            tr = Trace();
            return false;
        }
        if (isOp) {
            std::string bad =
                checkOpEventRange(op, tr.events().size());
            if (!bad.empty()) {
                error = strf("line %zu: op names undeclared event "
                             "('%s')",
                             lineNo, bad.c_str());
                tr = Trace();
                return false;
            }
            tr.emit(op);
        }
    }
    return true;
}

bool
readTraceFromString(const std::string &text, Trace &tr,
                    std::string &error)
{
    std::istringstream ss(text);
    return readTrace(ss, tr, error);
}

Status
trySaveTraceFile(const Trace &tr, const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        return Status::error(ErrCode::IoError,
                             "cannot open " + path + " for writing");
    }
    writeTrace(tr, out);
    if (!out) {
        return Status::error(ErrCode::IoError,
                             "write to " + path + " failed");
    }
    return Status::ok();
}

void
saveTraceFile(const Trace &tr, const std::string &path)
{
    Status st = trySaveTraceFile(tr, path);
    if (!st)
        fatal(st.toString());
}

// ----- StreamingTextSource --------------------------------------------

StreamingTextSource::StreamingTextSource(std::istream &in,
                                         SourceErrorPolicy policy)
    : in_(in), policy_(policy)
{
    lineNo_ = 1;
    if (!std::getline(in_, line_) ||
        (line_ != kTextHeader && line_ != kTextHeaderAsync)) {
        fail(ErrCode::ParseError,
             strf("line 1: bad header ('%s')", line_.c_str()));
        return;
    }
    meta_.setDialect(line_ == kTextHeaderAsync ? Dialect::Async
                                               : Dialect::Looper);
}

bool
StreamingTextSource::fail(ErrCode code, const std::string &msg)
{
    ok_ = false;
    errCode_ = code;
    error_ = msg;
    return false;
}

Status
StreamingTextSource::status() const
{
    if (ok_)
        return Status::ok();
    return Status::error(errCode_, error_, lineNo_);
}

bool
StreamingTextSource::skipRecord(const std::string &why)
{
    if (skipped_ >= policy_.maxRecordErrors) {
        return fail(
            skipped_ > 0 ? ErrCode::BudgetExceeded
                         : ErrCode::ParseError,
            skipped_ > 0
                ? strf("error budget exhausted after %llu skipped "
                       "records; last: %s",
                       static_cast<unsigned long long>(skipped_),
                       why.c_str())
                : why);
    }
    ++skipped_;
    warnRateLimited("trace_text.skip",
                    "skipping corrupt trace line: " + why);
    return true;
}

bool
StreamingTextSource::next(Operation &op)
{
    if (!ok_)
        return false;
    TextLineParser parser(meta_, meta_.dialect());
    while (std::getline(in_, line_)) {
        ++lineNo_;
        bool isOp = false;
        std::string err;
        if (!parser.parseLine(line_, lineNo_, isOp, op, err)) {
            // Entity lines are positional: a skip would shift every
            // later id, so only op/unknown lines are skippable.
            if (isEntityLine(line_))
                return fail(ErrCode::ParseError, err);
            if (!skipRecord(err))
                return false;
            continue;
        }
        if (isOp) {
            std::string bad =
                checkOpEventRange(op, meta_.events().size());
            if (!bad.empty()) {
                if (!skipRecord(
                        strf("line %zu: op names undeclared event "
                             "('%s')",
                             lineNo_, bad.c_str()))) {
                    return false;
                }
                continue;
            }
            if (op.kind == OpKind::Send)
                meta_.noteSend(op.event, op.target, op.attrs);
            return true;
        }
    }
    return false;  // clean EOF
}

std::uint64_t
StreamingTextSource::containerBytes() const
{
    // Only the current line buffer; the stream itself is O(1).
    return line_.capacity();
}

} // namespace asyncclock::trace
