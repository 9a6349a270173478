// tracer_test.cpp — unit tests for the span/event model: inactive spans
// are free and record nothing, active spans carry counters, rule instants
// render to derivation lines, and the Chrome trace export has the
// trace-event fields Perfetto expects.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace proteus::obs {
namespace {

TEST(SpanTest, InactiveWithoutTracer) {
  ASSERT_EQ(tracer(), nullptr);
  Span span("cat", "name");
  EXPECT_FALSE(span.active());
  span.counter("ignored", 1);  // must be a no-op, not a crash
}

TEST(SpanTest, RecordsSpanWithCounters) {
  Tracer t;
  {
    TracerScope scope(&t);
    Span span("run", "run.vm");
    EXPECT_TRUE(span.active());
    span.counter("elements", 42);
    span.counter("segments", 7);
  }
  const auto events = t.events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_EQ(e.kind, TraceEvent::Kind::kSpan);
  EXPECT_STREQ(e.cat, "run");
  EXPECT_EQ(e.name, "run.vm");
  EXPECT_GT(e.tid, 0u);
  ASSERT_EQ(e.counters.size(), 2u);
  EXPECT_EQ(e.counters[0].first, "elements");
  EXPECT_EQ(e.counters[0].second, 42u);
  EXPECT_EQ(e.counters[1].first, "segments");
  EXPECT_EQ(e.counters[1].second, 7u);
}

TEST(SpanTest, NestedSpansRecordInnermostFirst) {
  Tracer t;
  {
    TracerScope scope(&t);
    Span outer("compile", "compile");
    { Span inner("compile", "parse"); }
  }
  const auto events = t.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "parse");
  EXPECT_EQ(events[1].name, "compile");
  EXPECT_LE(events[0].dur_ns, events[1].dur_ns);
}

TEST(TracerScopeTest, RestoresPreviousSink) {
  Tracer a;
  Tracer b;
  TracerScope sa(&a);
  {
    TracerScope sb(&b);
    EXPECT_EQ(tracer(), &b);
  }
  EXPECT_EQ(tracer(), &a);
}

TEST(MaybeTracerScopeTest, NullLeavesCurrentSinkAlone) {
  Tracer a;
  TracerScope sa(&a);
  {
    MaybeTracerScope maybe(nullptr);
    EXPECT_EQ(tracer(), &a);
  }
  EXPECT_EQ(tracer(), &a);
}

TEST(MaybeTracerScopeTest, NonNullInstallsAndRestores) {
  Tracer a;
  Tracer b;
  TracerScope sa(&a);
  {
    MaybeTracerScope maybe(&b);
    EXPECT_EQ(tracer(), &b);
  }
  EXPECT_EQ(tracer(), &a);
}

TEST(TracerTest, RuleLinesRenderInstants) {
  Tracer t;
  t.instant("rule", "R2a", "[i <- v : i]", {{"depth", 2}});
  t.instant("other", "not-a-rule");
  t.instant("rule", "R1", "snippet");
  const auto lines = t.rule_lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{R2a} @2  [i <- v : i]");
  EXPECT_EQ(lines[1], "{R1} @0  snippet");
  // `from` slices off the prefix (e.g. a previous compile's events).
  EXPECT_EQ(t.rule_lines(1).size(), 1u);
  EXPECT_TRUE(t.rule_lines(3).empty());
}

TEST(TracerTest, ClearAndCount) {
  Tracer t;
  EXPECT_EQ(t.event_count(), 0u);
  t.instant("rule", "R0");
  t.instant("rule", "R0");
  EXPECT_EQ(t.event_count(), 2u);
  t.clear();
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(TracerTest, ChromeTraceShape) {
  Tracer t;
  {
    TracerScope scope(&t);
    Span span("compile", "parse");
    span.counter("source_bytes", 7);
  }
  t.instant("rule", "R2c", "a\"b");
  std::ostringstream os;
  t.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"compile\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"source_bytes\":7"), std::string::npos);
  EXPECT_NE(json.find("\"expr\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ThreadTracerScopeTest, OverridesGlobalSinkOnThisThread) {
  Tracer global;
  Tracer local;
  TracerScope g(&global);
  {
    ThreadTracerScope scope(&local);
    EXPECT_EQ(tracer(), &local);
    Span span("serve", "handled");
  }
  EXPECT_EQ(tracer(), &global);
  EXPECT_EQ(local.event_count(), 1u);
  EXPECT_EQ(global.event_count(), 0u);
}

TEST(ThreadTracerScopeTest, NullIsNoOverride) {
  Tracer global;
  TracerScope g(&global);
  {
    ThreadTracerScope scope(nullptr);
    EXPECT_EQ(tracer(), &global);  // falls through to the global sink
  }
  EXPECT_EQ(tracer(), &global);
}

TEST(ThreadTracerScopeTest, NestedScopesRestoreInOrder) {
  Tracer a;
  Tracer b;
  {
    ThreadTracerScope sa(&a);
    {
      ThreadTracerScope sb(&b);
      EXPECT_EQ(tracer(), &b);
    }
    EXPECT_EQ(tracer(), &a);
  }
  EXPECT_EQ(tracer(), nullptr);
}

TEST(ThreadTracerScopeTest, ConcurrentThreadsRecordIntoTheirOwnSinks) {
  // The serving daemon's per-request isolation: N workers, each with a
  // thread-local tracer, never interleave events — even with a global
  // sink installed underneath. Run under tsan in CI.
  Tracer global;
  TracerScope g(&global);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<Tracer> locals(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&locals, i] {
      ThreadTracerScope scope(&locals[static_cast<std::size_t>(i)]);
      for (int s = 0; s < kSpansPerThread; ++s) {
        Span span("serve", "request");
        span.counter("thread", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(global.event_count(), 0u);
  for (int i = 0; i < kThreads; ++i) {
    const auto& local = locals[static_cast<std::size_t>(i)];
    EXPECT_EQ(local.event_count(),
              static_cast<std::size_t>(kSpansPerThread));
    for (const TraceEvent& e : local.events()) {
      ASSERT_EQ(e.counters.size(), 1u);
      EXPECT_EQ(e.counters[0].second, static_cast<std::uint64_t>(i));
    }
  }
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain text"), "plain text");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ThreadIdTest, StableWithinAndDistinctAcrossThreads) {
  const std::uint32_t main_id = thread_id();
  EXPECT_GT(main_id, 0u);
  EXPECT_EQ(thread_id(), main_id);
  std::uint32_t other = 0;
  std::thread([&] { other = thread_id(); }).join();
  EXPECT_NE(other, main_id);
}

}  // namespace
}  // namespace proteus::obs
