// The shared per-run document sink (obs/sink.h): label numbering, label
// order, the exact bytes of each layout, and the install lookup rule.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "obs/sink.h"

namespace ordma {
namespace {

using obs::Sink;

std::string written(const Sink& sink) {
  std::ostringstream os;
  sink.write(os);
  return os.str();
}

TEST(Sink, RepeatedLabelsAreNumbered) {
  Sink sink(Sink::Layout::object);
  sink.add("run", "1");
  sink.add("run", "2");
  sink.add("run", "3");
  EXPECT_EQ(written(sink),
            "{\"schema\":\"ordma.metrics.v1\",\"runs\":{\n"
            "\"run\":1,\n\"run#2\":2,\n\"run#3\":3\n}}\n");
}

TEST(Sink, DocumentsComeOutInLabelOrder) {
  Sink sink(Sink::Layout::array);
  sink.add("b", "{\"b\":1}");
  sink.add("c", "{\"c\":1}");
  sink.add("a", "{\"a\":1}");
  ASSERT_EQ(sink.runs(), 3u);
  EXPECT_EQ(sink.doc(0), "{\"a\":1}");
  EXPECT_EQ(sink.doc(1), "{\"b\":1}");
  EXPECT_EQ(sink.doc(2), "{\"c\":1}");
  EXPECT_EQ(written(sink), "[\n{\"a\":1},\n{\"b\":1},\n{\"c\":1}\n]\n");
}

TEST(Sink, ObjectLayoutBytes) {
  Sink sink(Sink::Layout::object);
  EXPECT_EQ(written(sink), "{\"schema\":\"ordma.metrics.v1\",\"runs\":{}}\n");
  sink.add("x\"y", "{\"n\":1}\n");  // trailing whitespace is trimmed
  EXPECT_EQ(written(sink),
            "{\"schema\":\"ordma.metrics.v1\",\"runs\":{\n"
            "\"x\\\"y\":{\"n\":1}\n}}\n");
  sink.add("a", "{\"n\":2} \n");
  EXPECT_EQ(written(sink),
            "{\"schema\":\"ordma.metrics.v1\",\"runs\":{\n"
            "\"a\":{\"n\":2},\n\"x\\\"y\":{\"n\":1}\n}}\n");
}

TEST(Sink, ArrayLayoutBytes) {
  Sink sink(Sink::Layout::array);
  EXPECT_EQ(written(sink), "[]\n");
  sink.add("r1", "{\"run\":\"r1\"}");
  EXPECT_EQ(written(sink), "[\n{\"run\":\"r1\"}\n]\n");
  sink.add("r2", "{\"run\":\"r2\"}");
  EXPECT_EQ(written(sink), "[\n{\"run\":\"r1\"},\n{\"run\":\"r2\"}\n]\n");
}

TEST(Sink, BlocksLayoutKeepsEachBlocksNewlines) {
  Sink sink(Sink::Layout::blocks);
  EXPECT_EQ(written(sink), "");
  sink.add("r1", "# run r1\nt_ns,a\n0,1\n");
  EXPECT_EQ(sink.doc(0), "# run r1\nt_ns,a\n0,1\n");
  EXPECT_EQ(written(sink), "# run r1\nt_ns,a\n0,1\n");
  sink.add("r2", "# run r2\nt_ns,a\n0,2\n");
  EXPECT_EQ(written(sink),
            "# run r1\nt_ns,a\n0,1\n# run r2\nt_ns,a\n0,2\n");
}

TEST(Sink, DocPastTheEndFailsACheck) {
  Sink sink(Sink::Layout::array);
  sink.add("r", "{}");
  EXPECT_EQ(sink.doc(0), "{}");
  EXPECT_DEATH(sink.doc(1), "ORDMA_CHECK failed");
}

TEST(Sink, LookupIsThreadLocalThenGlobal) {
  EXPECT_EQ(obs::sinks(), nullptr);
  obs::SinkSet global;
  obs::install_global_sinks(&global);
  EXPECT_EQ(obs::sinks(), &global);
  {
    obs::SinkSet local;
    obs::install_sinks(&local);
    EXPECT_EQ(obs::sinks(), &local);
    obs::SinkSet* seen = &local;
    std::thread([&seen] { seen = obs::sinks(); }).join();
    EXPECT_EQ(seen, &global);  // another thread sees only the global one
  }  // `local` uninstalls itself
  EXPECT_EQ(obs::sinks(), &global);
  obs::install_global_sinks(nullptr);
  EXPECT_EQ(obs::sinks(), nullptr);
}

}  // namespace
}  // namespace ordma
