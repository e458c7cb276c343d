#include "obs/convert.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace hydra::obs {
namespace {

/// Emits the shared prefix of one traceEvents entry.
void event_header(JsonWriter& w, std::string_view name, std::string_view ph,
                  std::int64_t ts, std::int64_t tid) {
  w.begin_object();
  w.kv("name", name);
  w.kv("ph", ph);
  w.kv("ts", ts);
  w.kv("pid", 0);
  w.kv("tid", tid);
}

}  // namespace

std::size_t chrome_trace_from_jsonl(std::istream& in, std::ostream& out) {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  std::size_t converted = 0;
  std::set<std::int64_t> tids;
  std::string line;
  while (std::getline(in, line)) {
    const auto doc = parse_json(line);
    if (!doc) continue;
    const JsonValue& kv = *doc;
    const std::string& ev = kv["ev"].text();
    if (ev.empty()) continue;
    const std::int64_t t = kv["t"].as_i64();

    if (ev == "send" || ev == "deliver") {
      const std::int64_t tid = ev == "send" ? kv["from"].as_i64() : kv["to"].as_i64();
      tids.insert(tid);
      const std::string name = ev + " tag" + kv["tag"].text() + " k" + kv["kind"].text();
      event_header(w, name, "i", t, tid);
      w.kv("s", "t");
      w.key("args");
      w.begin_object();
      w.kv("from", kv["from"].as_i64());
      w.kv("to", kv["to"].as_i64());
      w.kv("tag", kv["tag"].as_i64());
      w.kv("a", kv["a"].as_i64());
      w.kv("b", kv["b"].as_i64());
      w.kv("kind", kv["kind"].as_i64());
      w.kv("bytes", kv["bytes"].as_i64());
      w.end_object();
      w.end_object();
    } else if (ev == "state") {
      const std::int64_t tid = kv["party"].as_i64();
      tids.insert(tid);
      event_header(w, kv["layer"].text() + ":" + kv["what"].text(), "i", t, tid);
      w.kv("s", "t");
      w.key("args");
      w.begin_object();
      w.kv("a", kv["a"].as_i64());
      w.kv("b", kv["b"].as_i64());
      w.end_object();
      w.end_object();
    } else if (ev == "round_start" || ev == "round_end") {
      const std::int64_t tid = kv["party"].as_i64();
      tids.insert(tid);
      event_header(w, "it " + kv["it"].text(), ev == "round_start" ? "B" : "E", t, tid);
      w.key("args");
      w.begin_object();
      w.kv("it", kv["it"].as_i64());
      w.end_object();
      w.end_object();
    } else if (ev == "scalar") {
      const std::int64_t tid = kv["party"].as_i64();
      tids.insert(tid);
      const std::string name = kv["name"].text() + " p" + kv["party"].text();
      event_header(w, name, "C", t, tid);
      w.key("args");
      w.begin_object();
      w.kv("value", kv["value"].as_double());
      w.end_object();
      w.end_object();
    } else if (ev == "invariant.violation") {
      const std::int64_t tid = kv["party"].as_i64();
      tids.insert(tid);
      event_header(w, "VIOLATION " + kv["monitor"].text(), "i", t, tid);
      w.kv("s", "g");  // global scope: violations should jump out in the UI
      w.key("args");
      w.begin_object();
      w.kv("monitor", kv["monitor"].text());
      w.kv("it", kv["it"].as_i64());
      w.kv("cause", kv["cause"].as_i64());
      w.kv("detail", kv["detail"].text());
      w.end_object();
      w.end_object();
    } else if (ev == "log") {
      event_header(w, "log", "i", t, -1);
      w.kv("s", "g");
      w.key("args");
      w.begin_object();
      w.kv("level", kv["level"].as_i64());
      w.kv("msg", kv["msg"].text());
      w.end_object();
      w.end_object();
    } else {
      continue;  // unknown event type (schema grew): skip, stay compatible
    }
    ++converted;
  }

  // Name the per-party thread tracks.
  for (const auto tid : tids) {
    event_header(w, "thread_name", "M", 0, tid);
    w.key("args");
    w.begin_object();
    w.kv("name", "party " + std::to_string(tid));
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  const std::string doc = w.take();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  return converted;
}

}  // namespace hydra::obs
