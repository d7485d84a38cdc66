#include "spans.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             // lint:allow(wallclock): the benchmark measures host time; it never feeds simulation state
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  // lint:allow(wallclock): process CPU time for the set-up report; it never feeds simulation state
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int SpanRecorder::begin(std::string name, std::string layer, std::string tag) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.tag = std::move(tag);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = host_now_s();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end_s = host_now_s();
  open_.pop_back();
}

std::map<std::string, double> SpanRecorder::total_seconds_by_layer() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.layer] += s.end_s - s.start_s;
  return out;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  // Children nest strictly inside their parent, so a parent's self time is
  // its duration minus the sum of its direct children's durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += spans_[i].end_s - spans_[i].start_s - child_s[i];
  }
  return out;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void SpanRecorder::write_chrome_trace(std::ostream& os,
                                      double origin_s) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": " << json_string(s.name)
       << ", \"cat\": " << json_string(s.layer)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
       << ", \"ts\": " << (s.start_s - origin_s) * 1e6
       << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"tag\": " << json_string(s.tag) << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

void SpanRecorder::write_self_time_table(std::ostream& os) const {
  const auto self = self_seconds_by_layer();
  const auto total = total_seconds_by_layer();
  double all = 0.0;
  for (const auto& [layer, s] : self) all += s;
  os << std::left << std::setw(18) << "layer" << std::right << std::setw(12)
     << "self s" << std::setw(12) << "total s" << std::setw(9) << "self %"
     << "\n";
  for (const auto& [layer, s] : self) {
    os << std::left << std::setw(18) << layer << std::right << std::fixed
       << std::setprecision(4) << std::setw(12) << s << std::setw(12)
       << total.at(layer) << std::setprecision(1) << std::setw(9)
       << (all > 0.0 ? 100.0 * s / all : 0.0) << "\n";
  }
  os.unsetf(std::ios::floatfield);
}

FastpathTotals parse_fastpath(const std::string& text) {
  FastpathTotals t;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    unsigned long long cycles = 0, stepped = 0, skipped = 0, windows = 0;
    if (std::sscanf(line.c_str(),
                    "[fastpath] cycles=%llu stepped=%llu skipped=%llu "
                    "windows=%llu",
                    &cycles, &stepped, &skipped, &windows) != 4) {
      continue;
    }
    ++t.system_runs;
    t.cycles += cycles;
    t.stepped += stepped;
    t.skipped += skipped;
    t.windows += windows;
  }
  return t;
}

FastpathCapture::FastpathCapture(std::string path) : path_(std::move(path)) {
  std::fflush(stderr);
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + path_);
  saved_fd_ = ::dup(2);
  if (saved_fd_ < 0 || ::dup2(fd, 2) < 0) {
    ::close(fd);
    throw std::runtime_error("cannot redirect stderr to " + path_);
  }
  ::close(fd);
  ::setenv("LLAMCAT_FASTPATH_STATS", "1", 1);
}

std::string FastpathCapture::finish() {
  if (saved_fd_ < 0) return "";
  ::unsetenv("LLAMCAT_FASTPATH_STATS");
  std::fflush(stderr);
  ::dup2(saved_fd_, 2);
  ::close(saved_fd_);
  saved_fd_ = -1;
  std::ifstream in(path_);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

FastpathCapture::~FastpathCapture() { finish(); }

}  // namespace perfbench
