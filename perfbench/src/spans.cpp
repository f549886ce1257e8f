#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = out[spans[i].name];
    const double dur = spans[i].end_s - spans[i].start_s;
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Queue waits all start at the batch submission and overlap, so they get
    // their own process row instead of stacking on the workers' timelines.
    const int pid = s.name == "harness.queue" ? 2 : 1;
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\","
       << times << ",\"pid\":" << pid << ",\"tid\":" << s.worker
       << ",\"args\":{\"point\":" << s.point << ",\"app\":\""
       << s.app << "\",\"param\":\"" << s.param
       << "\",\"worker\":" << s.worker << ",\"events\":" << s.events
       << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace perfbench
