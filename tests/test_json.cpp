// obs::parse_json, the one reader behind every post-run tool (report,
// convert, merge, top, perf): strictness, fuzzing and writer round-trips.
//
//   * the grammar is strict — trailing garbage, unbalanced brackets, bad
//     escapes and over-deep nesting reject the whole document;
//   * random bytes never crash the reader and never yield a document nested
//     deeper than kJsonMaxDepth;
//   * truncations and single-byte mutations of real trace, metrics, bench,
//     perf and stats documents are either rejected or come back as a
//     well-formed document (it re-serializes and re-parses to itself);
//   * JsonWriter -> parse_json round-trips strings (control characters,
//     quotes, backslashes), full-range u64/int64 and %.17g doubles
//     bit-exactly; NaN and infinities come back as null.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/perf.hpp"
#include "harness/runner.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"

using namespace hydra;
using obs::JsonValue;
using obs::parse_json;

namespace {

std::size_t depth(const JsonValue& v) {
  if (v.kind() != JsonValue::Kind::kArray && v.kind() != JsonValue::Kind::kObject) {
    return 0;
  }
  std::size_t deepest = 0;
  for (const auto& item : v.items()) deepest = std::max(deepest, depth(item));
  return deepest + 1;
}

void write(obs::JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kString: w.value(v.text()); break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const auto& item : v.items()) write(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (std::size_t i = 0; i < v.keys().size(); ++i) {
        w.key(v.keys()[i]);
        write(w, v.items()[i]);
      }
      w.end_object();
      break;
    default: w.raw(v.text());  // null, bool, number: the source text
  }
}

bool same(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind() || a.text() != b.text() || a.keys() != b.keys() ||
      a.items().size() != b.items().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.items().size(); ++i) {
    if (!same(a.items()[i], b.items()[i])) return false;
  }
  return true;
}

/// An accepted document must be within the depth limit and well-formed:
/// the writer re-serializes it and the reader reads back the same value.
void expect_well_formed(const JsonValue& v, const std::string& input) {
  EXPECT_LE(depth(v), obs::kJsonMaxDepth) << input;
  obs::JsonWriter w;
  write(w, v);
  const auto again = parse_json(w.str());
  ASSERT_TRUE(again.has_value()) << input << " -> " << w.str();
  EXPECT_TRUE(same(v, *again)) << input << " -> " << w.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

/// One document of every kind the program writes: trace lines, the metrics
/// document, a perf profile, a bench file and stats heartbeats.
std::vector<std::string> real_documents() {
  const std::string trace = testing::TempDir() + "hydra_json_trace.jsonl";
  const std::string metrics = testing::TempDir() + "hydra_json_metrics.json";
  const std::string perf = testing::TempDir() + "hydra_json_perf.json";
  const std::string stats = testing::TempDir() + "hydra_json_stats.jsonl";
  harness::RunSpec spec;
  spec.params.n = 5;
  spec.params.ts = 1;
  spec.params.ta = 1;
  spec.params.dim = 2;
  spec.adversary = harness::Adversary::kSilent;
  spec.corruptions = 1;
  spec.seed = 7;
  spec.monitors = obs::MonitorMode::kRecord;
  spec.trace_out = trace;
  spec.metrics_out = metrics;
  spec.perf_out = perf;
  EXPECT_TRUE(harness::execute(spec).verdict.d_aa());
  {
    obs::StatsPublisher pub(stats, 1000, /*proc=*/2);
    pub.set_provider([](obs::StatsSnapshot& s) {
      s.messages = 12;
      s.parties.push_back({.id = 1, .finished = true, .events = 9, .round = 3});
    });
    pub.stop();
  }

  std::vector<std::string> docs;
  // Every distinct event kind of the trace, once (the first line of each).
  std::set<std::string> kinds;
  for (auto& line : lines_of(slurp(trace))) {
    const auto doc = parse_json(line);
    EXPECT_TRUE(doc.has_value()) << line;
    if (doc && kinds.insert((*doc)["ev"].text()).second) docs.push_back(line);
  }
  EXPECT_GE(kinds.size(), 8u);
  docs.push_back(slurp(metrics));
  docs.push_back(slurp(perf));
  const std::vector<harness::BenchMetric> bench = {
      {"geo.hull2d", "ns/point", 12.25, 4096}, {"geo.clip", "ns/point", 3e-7, 1}};
  docs.push_back(harness::bench_json("json_fuzz", bench));
  for (auto& line : lines_of(slurp(stats))) docs.push_back(line);
  for (const auto* path : {&trace, &metrics, &perf, &stats}) std::remove(path->c_str());
  return docs;
}

// ------------------------------------------------------------------ strictness

TEST(Json, AcceptsTheGrammar) {
  const auto v = parse_json(
      " {\"a\" : [1, -2.5e+3, 0.5E-2, true, false, null, \"x\\/y\"], \"b\":{}}\n");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->keys(), (std::vector<std::string>{"a", "b"}));
  const auto& a = (*v)["a"].items();
  ASSERT_EQ(a.size(), 7u);
  EXPECT_EQ(a[0].kind(), JsonValue::Kind::kNumber);
  EXPECT_EQ(a[1].text(), "-2.5e+3");  // numbers keep their source text
  EXPECT_EQ(a[1].as_double(), -2500.0);
  EXPECT_EQ(a[2].text(), "0.5E-2");
  EXPECT_EQ(a[3].kind(), JsonValue::Kind::kBool);
  EXPECT_EQ(a[3].text(), "true");
  EXPECT_EQ(a[5].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(a[6].text(), "x/y");
  EXPECT_TRUE((*v)["b"].is_object());
  // Missing members read as empty: no text, zero numbers, no items.
  EXPECT_EQ(v->find("zz"), nullptr);
  EXPECT_EQ((*v)["zz"].text(), "");
  EXPECT_EQ((*v)["zz"].as_u64(), 0u);
  EXPECT_TRUE((*v)["zz"].items().empty());
  // Scalars at the top level are documents too.
  EXPECT_TRUE(parse_json("7").has_value());
  EXPECT_TRUE(parse_json("\"s\"").has_value());
}

TEST(Json, RejectsEveryDeviation) {
  for (const char* bad : {
           "",           " ",           "{",           "}",
           "{\"a\":1}x", "{\"a\":1}}",  "{\"a\":[1}",  "[1,]",
           "[,1]",       "{\"a\" 1}",   "{\"a\":}",    "{a:1}",
           "{'a':1}",    "01",          "1.",          ".5",
           "+1",         "-",           "1e",          "1e+",
           "inf",        "NaN",         "nul",         "truex",
           "\"\\x\"",    "\"\\u12\"",   "\"\\ud800\"", "\"\\udc00\"",
           "\"a",        "\"a\nb\"",    "[1 2]",       "{\"a\":1,}",
       }) {
    EXPECT_FALSE(parse_json(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(Json, EscapesDecodeToUtf8) {
  const auto v = parse_json(R"("\u0041\u00e9\u20ac\ud83d\ude00\b\f\n\r\t\"\\")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->text(), "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80\b\f\n\r\t\"\\");
}

TEST(Json, NestingLimitIsEnforced) {
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  const auto at_limit = parse_json(nested(obs::kJsonMaxDepth));
  ASSERT_TRUE(at_limit.has_value());
  EXPECT_EQ(depth(*at_limit), obs::kJsonMaxDepth);
  EXPECT_FALSE(parse_json(nested(obs::kJsonMaxDepth + 1)).has_value());
  // Far past the limit: rejected without recursing that deep.
  EXPECT_FALSE(parse_json(std::string(1 << 20, '[')).has_value());
  EXPECT_FALSE(parse_json(std::string(1 << 20, '{')).has_value());
}

TEST(Json, FullRangeIntegersReadBackExactly) {
  const auto v = parse_json(
      R"({"id":18446744073709551615,"neg":-9223372036854775808,"d":0.1})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)["id"].as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ((*v)["id"].text(), "18446744073709551615");
  EXPECT_EQ((*v)["neg"].as_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ((*v)["d"].as_double(), 0.1);
}

TEST(Json, DuplicateKeysResolveToTheFirst) {
  const auto v = parse_json(R"({"k":1,"k":2})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)["k"].as_u64(), 1u);
  EXPECT_EQ(v->items().size(), 2u);
}

// ------------------------------------------------------------------------ fuzz

TEST(JsonFuzz, RandomBytesNeverCrashOrNestTooDeep) {
  Rng rng(0x150DEC0DE);
  // Half the trials draw from JSON's own alphabet, where random strings get
  // much further into the grammar than uniform bytes do.
  const std::string alphabet = "{}[]\",:0123456789-+.eEtrufalsn \\u/";
  std::size_t accepted = 0;
  for (int trial = 0; trial < 40000; ++trial) {
    std::string input(rng.next_below(48), '\0');
    const bool structured = trial % 2 == 0;
    for (auto& c : input) {
      c = structured ? alphabet[rng.next_below(alphabet.size())]
                     : static_cast<char>(rng.next_u64());
    }
    if (const auto v = parse_json(input)) {
      ++accepted;
      expect_well_formed(*v, input);
    }
  }
  EXPECT_GT(accepted, 0u);  // the generator does reach valid documents
}

TEST(JsonFuzz, TruncatedAndMutatedRealDocumentsRejectOrStayWellFormed) {
  const auto docs = real_documents();
  ASSERT_GE(docs.size(), 12u);
  Rng rng(0xD0C5);
  for (const auto& doc : docs) {
    const auto whole = parse_json(doc);
    ASSERT_TRUE(whole.has_value()) << doc;
    expect_well_formed(*whole, doc);

    // Every document the program writes is an object, so no strict prefix
    // of it (short of trailing whitespace) can be complete.
    std::size_t end = doc.size();
    while (end > 0 && (doc[end - 1] == '\n' || doc[end - 1] == ' ')) --end;
    for (std::size_t cut = 0; cut < end; ++cut) {
      EXPECT_FALSE(parse_json(std::string_view(doc).substr(0, cut)).has_value())
          << "accepted a truncation at " << cut << " of " << doc;
    }

    for (int m = 0; m < 300; ++m) {
      std::string mutated = doc;
      mutated[rng.next_below(mutated.size())] = static_cast<char>(rng.next_u64());
      if (const auto v = parse_json(mutated)) expect_well_formed(*v, mutated);
    }
  }
}

// ------------------------------------------------------------- writer round-trip

TEST(JsonRoundTrip, StringsIntegersAndDoublesComeBackBitExact) {
  Rng rng(0xACE);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string s(rng.next_below(24), '\0');
    for (auto& c : s) {
      // Bias toward the characters the writer must escape.
      const auto pick = rng.next_below(4);
      c = pick == 0   ? static_cast<char>(rng.next_below(0x20))
          : pick == 1 ? "\"\\/"[rng.next_below(3)]
                      : static_cast<char>(rng.next_u64());
    }
    const std::uint64_t u = trial == 0 ? std::numeric_limits<std::uint64_t>::max()
                                       : rng.next_u64() >> rng.next_below(64);
    const auto i = static_cast<std::int64_t>(
        trial == 1 ? std::uint64_t{1} << 63 : rng.next_u64());
    double d = 0.0;
    do {
      d = std::bit_cast<double>(rng.next_u64());
    } while (!std::isfinite(d));

    obs::JsonWriter w;
    w.begin_object();
    w.key("s");
    w.begin_object();
    w.kv(s, s);  // also as a member name
    w.end_object();
    w.kv("u", u);
    w.kv("i", i);
    w.kv("d", d);
    w.kv("nan", std::numeric_limits<double>::quiet_NaN());
    w.kv("inf", -std::numeric_limits<double>::infinity());
    w.end_object();

    const auto v = parse_json(w.str());
    ASSERT_TRUE(v.has_value()) << w.str();
    ASSERT_EQ((*v)["s"].keys().size(), 1u);
    EXPECT_EQ((*v)["s"].keys()[0], s);
    EXPECT_EQ((*v)["s"].items()[0].text(), s);
    EXPECT_EQ((*v)["u"].as_u64(), u);
    EXPECT_EQ((*v)["i"].as_i64(), i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>((*v)["d"].as_double()),
              std::bit_cast<std::uint64_t>(d))
        << (*v)["d"].text();
    EXPECT_EQ((*v)["nan"].kind(), JsonValue::Kind::kNull);
    EXPECT_EQ((*v)["inf"].kind(), JsonValue::Kind::kNull);
  }
}

}  // namespace
