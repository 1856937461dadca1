/**
 * @file
 * Chat-app case study: sync barriers, async messages, binder RPC, and
 * event removal in one app model — the "everything at once" example.
 *
 * The model: a chat UI whose main looper renders messages. During a
 * send animation the app installs a *sync barrier* so ordinary UI
 * updates stall, while the animation's frame callbacks are posted as
 * *async* messages that bypass it (Android's Choreographer idiom).
 * Outgoing messages go through a binder RPC to the "system server";
 * the reply posts a delivery receipt back to the UI. A typing
 * indicator is posted Delayed and removed again when the user stops
 * typing before it fires.
 *
 * Two real bugs are planted:
 *  1. The async animation frames read the message list that the
 *     (barrier-stalled) update event writes — the barrier changes
 *     *scheduling*, not causality, so this is a race the detector
 *     must report.
 *  2. The delivery receipt and a conversation-switch event both
 *     touch the "current conversation" pointer with no ordering —
 *     the classic stale-callback bug.
 *
 * Run: ./build/examples/chat_app
 */

#include <cstdio>

#include "core/detector.hh"
#include "report/export.hh"
#include "report/fasttrack.hh"
#include "report/races.hh"
#include "runtime/runtime.hh"

using namespace asyncclock;
using runtime::PostOpts;
using runtime::Script;

int
main()
{
    runtime::Runtime rt;
    auto ui = rt.addLooper("ui");
    auto systemServer = rt.addBinderPool("system_server", 2);

    auto messageList = rt.var("messageList", trace::SeedLabel::Harmful);
    auto currentConvo = rt.var("currentConversation",
                               trace::SeedLabel::Harmful);
    auto typingFlag = rt.var("typingIndicator");

    auto updateSite = rt.site("ChatView.appendMessage",
                              trace::Frame::User);
    auto frameSite = rt.site("SendAnimation.onFrame",
                             trace::Frame::User);
    auto receiptSite = rt.site("ChatService.onDelivered",
                               trace::Frame::User);
    auto switchSite = rt.site("ChatActivity.switchConversation",
                              trace::Frame::User);
    auto typingSite = rt.site("ChatView.showTyping",
                              trace::Frame::User);

    // The user sends a message: install the barrier, run two async
    // animation frames, post the (sync, stalled) list update, remove
    // the barrier.
    auto barrier = rt.token();
    auto delivered = rt.handle("delivered");
    rt.spawnWorker(
        "send-flow",
        Script()
            .postBarrier(ui, barrier)
            .post(ui, Script().read(messageList, frameSite),
                  PostOpts::delayed(0, /*async=*/true))
            .post(ui, Script().read(messageList, frameSite),
                  PostOpts::delayed(16, /*async=*/true))
            .post(ui, Script().write(messageList, updateSite))
            .sleep(40)
            .removeBarrier(barrier)
            // RPC to the system server; its reply posts the receipt.
            .post(systemServer,
                  Script()
                      .sleep(25)
                      .post(ui, Script()
                                    .read(currentConvo, receiptSite)
                                    .write(messageList, updateSite))
                      .signal(delivered))
            .await(delivered));

    // Meanwhile the user switches conversations (no ordering against
    // the in-flight receipt) and starts/stops typing (the Delayed
    // indicator is removed before it fires).
    auto typingTok = rt.token();
    rt.spawnWorker(
        "input",
        Script()
            .sleep(30)
            .post(ui, Script().write(currentConvo, switchSite))
            .post(ui, Script().write(typingFlag, typingSite),
                  PostOpts::delayed(3000), typingTok)
            .sleep(20)
            .remove(typingTok));

    trace::Trace tr = rt.run();
    std::printf("trace: %s\n", tr.stats().summary().c_str());

    report::FastTrackChecker checker;
    core::AsyncClockDetector det(tr, checker, {});
    det.runAll();
    report::RaceAnalyzer analyzer(tr);
    auto summary = analyzer.analyze(checker.races());

    std::printf("%s\n", summary.summary().c_str());
    for (const auto &group : summary.reported)
        std::printf("  %s\n", analyzer.describe(group).c_str());
    std::printf("\nJSON export:\n%s\n",
                report::toJson(summary, trace::TraceMeta::fromTrace(tr))
                    .c_str());

    // Expect both planted bugs: the animation-vs-update race (the
    // barrier does not order them) and the receipt-vs-switch race.
    return summary.harmful >= 2 ? 0 : 1;
}
