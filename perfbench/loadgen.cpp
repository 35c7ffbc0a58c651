// pb_loadgen: the benchmark's load generator and HTTP/1.1 client.
//
//   pb_loadgen <plan-file>
//
// One process, one thread, epoll over at most a handful of keep-alive
// connections. It links nothing from the sledge sources, so a change to the
// program under test cannot move the ruler.
//
// The plan (written by run.py) names the server, a request catalog and a
// list of phases. Each phase holds one or more streams:
//   closed <conns>  each connection sends the stream's next request as soon
//                   as its previous response arrived (throughput phases);
//   open <conns>    requests are due at fixed offsets from the phase start
//                   and go out on any idle connection; a request is timed
//                   from when it was due, so a stall is charged to every
//                   request it delays (latency phases).
//   background <conns>  like closed, but cycles through its requests until
//                   every other stream of the phase is done (load that must
//                   last exactly as long as the measured stream).
// Phases run one after another; a phase ends when every response of every
// stream has arrived. Around each phase the generator records a /proc
// snapshot of the server, a GET /admin/stats body and the access-log line
// count, so run.py can take per-phase deltas.
//
// Plan format (whitespace separated):
//   port <n>  pid <n>  catalog <file>  outdir <dir>  accesslog <file|->
//   phase <name>
//     stream closed|open|background <conns> <count>
//       <template-index> <due-ns>      (count lines; due ignored if closed)
//   end
// The catalog format is in catalog.hpp.
//
// Output per phase, in outdir:
//   <phase>.req    one line per request:
//                  stream template due_ns send_ns done_ns status ok
//   <phase>.pre / <phase>.post   key value lines (server /proc + log lines)
//   <phase>.stats0.json / <phase>.stats1.json   /admin/stats bodies
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "catalog.hpp"

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pb_loadgen: %s\n", msg.c_str());
  std::exit(1);
}

uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void sleep_ms(int ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1'000'000L};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

struct Template {
  std::string wire;      // full serialized request
  std::string expected;  // expected response body
};

struct Op {
  uint32_t tmpl = 0;
  uint64_t due = 0;  // ns from phase start (open streams)
  uint64_t send = 0;
  uint64_t done = 0;
  int status = 0;
  bool ok = false;
};

struct Stream {
  bool open = false;
  bool background = false;
  int conns = 0;
  std::vector<Op> ops;
  size_t next = 0;         // next op to release (open) or send (closed)
  std::deque<size_t> ready;  // open: released, waiting for a connection
  size_t completed = 0;
  std::vector<uint32_t> cycle;  // background: templates, sent in turn
};

struct Phase {
  std::string name;
  std::vector<Stream> streams;
};

struct Plan {
  int port = 0;
  int pid = 0;
  std::string catalog;
  std::string outdir;
  std::string access_log;
  std::vector<Phase> phases;
};

std::vector<Template> load_templates(const std::string& file) {
  std::vector<Template> out;
  for (const perfbench::CatalogEntry& e : perfbench::load_catalog(file)) {
    out.push_back({"POST " + e.path + " HTTP/1.1\r\nHost: localhost\r\n" +
                       "Content-Length: " + std::to_string(e.body.size()) +
                       "\r\n\r\n" + e.body,
                   e.expected});
  }
  return out;
}

Plan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open plan " + path);
  Plan plan;
  std::string word;
  while (in >> word) {
    if (word == "port") {
      in >> plan.port;
    } else if (word == "pid") {
      in >> plan.pid;
    } else if (word == "catalog") {
      in >> plan.catalog;
    } else if (word == "outdir") {
      in >> plan.outdir;
    } else if (word == "accesslog") {
      in >> plan.access_log;
    } else if (word == "phase") {
      Phase ph;
      in >> ph.name;
      std::string w;
      while (in >> w && w != "end") {
        if (w != "stream") die("plan: expected stream, got " + w);
        Stream s;
        std::string kind;
        size_t count = 0;
        in >> kind >> s.conns >> count;
        if (kind != "open" && kind != "closed" && kind != "background") {
          die("plan: bad stream kind");
        }
        if (s.conns < 1 || count < 1) die("plan: empty stream");
        s.open = kind == "open";
        s.background = kind == "background";
        s.ops.resize(count);
        for (Op& op : s.ops) in >> op.tmpl >> op.due;
        if (!in) die("plan: truncated stream");
        if (s.background) {
          for (const Op& op : s.ops) s.cycle.push_back(op.tmpl);
          s.ops.clear();
        }
        ph.streams.push_back(std::move(s));
      }
      plan.phases.push_back(std::move(ph));
    } else {
      die("plan: unknown key " + word);
    }
  }
  return plan;
}

// ---- Server observation (/proc of the server, access log, /admin/stats) --

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t status_field(const std::string& text, const std::string& key) {
  size_t at = text.find("\n" + key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 2, nullptr, 10);
}

struct LogCount {
  uint64_t bytes = 0;
  uint64_t lines = 0;
};

LogCount count_log(const std::string& path) {
  LogCount c;
  if (path.empty() || path == "-") return c;
  std::string text = slurp(path);
  c.bytes = text.size();
  for (char ch : text) c.lines += ch == '\n';
  return c;
}

// Waits until the access log stops growing (workers flush their buffered
// lines when they go idle) and returns its line count.
uint64_t settled_log_lines(const std::string& path) {
  if (path.empty() || path == "-") return 0;
  LogCount last = count_log(path);
  for (int stable = 0, tries = 0; stable < 3 && tries < 100; ++tries) {
    sleep_ms(10);
    LogCount c = count_log(path);
    stable = c.bytes == last.bytes ? stable + 1 : 0;
    last = c;
  }
  return last.lines;
}

// The log count waits for the log to settle, so it is taken before the CPU
// counters at a phase start and after them at a phase end: the idle wait
// stays outside the measured window.
void write_proc_snapshot(const Plan& plan, const std::string& file,
                         bool at_start) {
  const std::string base = "/proc/" + std::to_string(plan.pid);
  std::map<std::string, uint64_t> kv;
  if (at_start) kv["log_lines"] = settled_log_lines(plan.access_log);
  // Per-thread on-CPU time (ns) and context switches, summed over tasks.
  uint64_t cpu_ns = 0, ctx = 0;
  if (DIR* d = ::opendir((base + "/task").c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string t = base + "/task/" + e->d_name;
      cpu_ns += std::strtoull(slurp(t + "/schedstat").c_str(), nullptr, 10);
      const std::string st = "\n" + slurp(t + "/status");
      ctx += status_field(st, "voluntary_ctxt_switches") +
             status_field(st, "nonvoluntary_ctxt_switches");
    }
    ::closedir(d);
  }
  kv["cpu_ns"] = cpu_ns;
  kv["ctx_switches"] = ctx;
  // utime, stime and minflt from /proc/<pid>/stat (fields after the comm).
  const std::string stat = slurp(base + "/stat");
  size_t rp = stat.rfind(')');
  if (rp != std::string::npos) {
    std::istringstream ss(stat.substr(rp + 2));
    std::vector<std::string> f;
    std::string x;
    while (ss >> x) f.push_back(x);
    // f[0] is field 3 (state): minflt = field 10, utime 14, stime 15.
    if (f.size() > 13) {
      kv["minflt"] = std::strtoull(f[7].c_str(), nullptr, 10);
      kv["utime_ticks"] = std::strtoull(f[11].c_str(), nullptr, 10);
      kv["stime_ticks"] = std::strtoull(f[12].c_str(), nullptr, 10);
    }
  }
  const std::string io = "\n" + slurp(base + "/io");
  kv["syscr"] = status_field(io, "syscr");
  kv["syscw"] = status_field(io, "syscw");
  const std::string status = "\n" + slurp(base + "/status");
  kv["vmhwm_kb"] = status_field(status, "VmHWM");
  kv["vmrss_kb"] = status_field(status, "VmRSS");
  kv["threads"] = status_field(status, "Threads");
  kv["clock_ns"] = now_ns();
  if (!at_start) kv["log_lines"] = settled_log_lines(plan.access_log);

  std::ofstream out(file);
  for (const auto& [k, v] : kv) out << k << " " << v << "\n";
}

int connect_server(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    die("connect failed: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Blocking GET on a fresh connection; returns the response body.
std::string http_get(int port, const std::string& path) {
  int fd = connect_server(port);
  std::string req = "GET " + path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  if (::write(fd, req.data(), req.size()) != static_cast<ssize_t>(req.size())) {
    die("admin request write failed");
  }
  std::string resp;
  char buf[65536];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) resp.append(buf, n);
  ::close(fd);
  size_t hdr = resp.find("\r\n\r\n");
  if (hdr == std::string::npos || resp.compare(0, 12, "HTTP/1.1 200") != 0) {
    die("admin request failed: " + resp.substr(0, 64));
  }
  return resp.substr(hdr + 4);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) die("cannot write " + path);
}

// ---- The client ----------------------------------------------------------

struct Conn {
  int fd = -1;
  int stream = -1;
  bool busy = false;
  size_t op = 0;          // index into the stream's ops while busy
  const std::string* out = nullptr;
  size_t out_off = 0;
  bool want_write = false;
  std::string in;         // response bytes received so far
};

class Client {
 public:
  Client(const Plan& plan, const std::vector<Template>& catalog)
      : plan_(plan), catalog_(catalog) {
    ep_ = ::epoll_create1(0);
    tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    if (ep_ < 0 || tfd_ < 0) die("epoll/timerfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = UINT64_MAX;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev);
  }

  void run_phase(Phase& ph) {
    // Assign connections: stream i gets its own `conns` connections.
    size_t need = 0;
    for (const Stream& s : ph.streams) need += s.conns;
    while (conns_.size() < need) open_conn();
    size_t c = 0;
    for (size_t si = 0; si < ph.streams.size(); ++si) {
      for (int k = 0; k < ph.streams[si].conns; ++k) {
        conns_[c++].stream = static_cast<int>(si);
      }
    }
    for (; c < conns_.size(); ++c) conns_[c].stream = -1;

    phase_ = &ph;
    start_ = now_ns();
    for (size_t i = 0; i < conns_.size(); ++i) feed(i);

    epoll_event events[64];
    while (true) {
      bool done = foreground_done();
      for (const Stream& s : ph.streams) done &= s.completed == s.ops.size();
      if (done) break;

      uint64_t now = now_ns();
      release_due(now);
      // Next open-stream due time, for the timer.
      uint64_t next_due = UINT64_MAX;
      for (const Stream& s : ph.streams) {
        if (s.open && s.next < s.ops.size()) {
          next_due = std::min(next_due, start_ + s.ops[s.next].due);
        }
      }
      int timeout = -1;
      if (next_due != UINT64_MAX) {
        if (next_due <= now + 50'000) {
          timeout = 0;  // spin the last 50 µs for an on-time send
        } else {
          itimerspec its{};
          uint64_t at = next_due - 50'000;
          its.it_value.tv_sec = static_cast<time_t>(at / 1'000'000'000ull);
          its.it_value.tv_nsec = static_cast<long>(at % 1'000'000'000ull);
          ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
        }
      }
      int n = ::epoll_wait(ep_, events, 64, timeout);
      if (n < 0 && errno != EINTR) die("epoll_wait failed");
      for (int i = 0; i < n; ++i) {
        if (events[i].data.u64 == UINT64_MAX) {
          uint64_t expirations;
          while (::read(tfd_, &expirations, sizeof(expirations)) > 0) {
          }
          continue;
        }
        size_t ci = events[i].data.u64;
        if (events[i].events & EPOLLOUT) flush(ci);
        if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) receive(ci);
      }
    }
    phase_ = nullptr;
  }

 private:
  void open_conn() {
    Conn c;
    c.fd = connect_server(plan_.port);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conns_.size() - 1;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, conns_.back().fd, &ev);
  }

  void reopen(size_t ci) {
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, conns_[ci].fd, nullptr);
    ::close(conns_[ci].fd);
    conns_[ci].fd = connect_server(plan_.port);
    ::fcntl(conns_[ci].fd, F_SETFL, ::fcntl(conns_[ci].fd, F_GETFL) | O_NONBLOCK);
    conns_[ci].want_write = false;
    conns_[ci].in.clear();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ci;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, conns_[ci].fd, &ev);
  }

  bool foreground_done() const {
    for (const Stream& s : phase_->streams) {
      if (!s.background && s.completed != s.ops.size()) return false;
    }
    return true;
  }

  void release_due(uint64_t now) {
    for (Stream& s : phase_->streams) {
      if (!s.open) continue;
      while (s.next < s.ops.size() && start_ + s.ops[s.next].due <= now) {
        s.ready.push_back(s.next++);
      }
    }
    for (size_t i = 0; i < conns_.size(); ++i) feed(i);
  }

  // Gives an idle connection its stream's next request, if one is ready.
  void feed(size_t ci) {
    Conn& c = conns_[ci];
    if (c.busy || c.stream < 0) return;
    Stream& s = phase_->streams[c.stream];
    size_t op;
    if (s.open) {
      if (s.ready.empty()) return;
      op = s.ready.front();
      s.ready.pop_front();
    } else if (s.background) {
      if (foreground_done()) return;
      op = s.ops.size();
      s.ops.emplace_back();
      s.ops.back().tmpl = s.cycle[op % s.cycle.size()];
    } else {
      if (s.next >= s.ops.size()) return;
      op = s.next++;
    }
    c.busy = true;
    c.op = op;
    c.in.clear();
    c.out = &catalog_[s.ops[op].tmpl].wire;
    c.out_off = 0;
    uint64_t t = now_ns() - start_;
    s.ops[op].send = t;
    if (!s.open) s.ops[op].due = t;
    flush(ci);
  }

  void flush(size_t ci) {
    Conn& c = conns_[ci];
    while (c.out && c.out_off < c.out->size()) {
      ssize_t n = ::write(c.fd, c.out->data() + c.out_off,
                          c.out->size() - c.out_off);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        break;
      } else {
        die("write failed: " + std::string(std::strerror(errno)));
      }
    }
    bool want = c.out && c.out_off < c.out->size();
    if (want != c.want_write) {
      epoll_event ev{};
      ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
      ev.data.u64 = ci;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_write = want;
    }
  }

  void receive(size_t ci) {
    Conn& c = conns_[ci];
    char buf[65536];
    bool closed = false;
    while (true) {
      ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EINTR)) closed = true;
      break;
    }
    bool reconnect = closed;
    if (c.busy) reconnect |= try_complete(ci);
    if (closed && c.busy) finish(ci, 0, false);  // server dropped the request
    if (reconnect) reopen(ci);
    feed(ci);
  }

  // Completes the connection's request once its whole response arrived.
  // Returns true when the server asked to close the connection.
  bool try_complete(size_t ci) {
    Conn& c = conns_[ci];
    size_t hdr = c.in.find("\r\n\r\n");
    if (hdr == std::string::npos) return false;
    int status = 0;
    if (c.in.size() >= 12 && c.in.compare(0, 5, "HTTP/") == 0) {
      status = std::atoi(c.in.c_str() + 9);
    }
    // Content-Length and Connection headers (case-insensitive names).
    size_t body_len = 0;
    bool close_after = false;
    size_t pos = c.in.find("\r\n") + 2;
    while (pos < hdr) {
      size_t eol = c.in.find("\r\n", pos);
      std::string line = c.in.substr(pos, eol - pos);
      pos = eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string key = line.substr(0, colon);
      for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
      std::string val = line.substr(colon + 1);
      while (!val.empty() && val.front() == ' ') val.erase(0, 1);
      if (key == "content-length") body_len = std::strtoull(val.c_str(), nullptr, 10);
      if (key == "connection" && (val == "close" || val == "Close")) close_after = true;
    }
    if (c.in.size() < hdr + 4 + body_len) return false;
    const Stream& s = phase_->streams[c.stream];
    const std::string& want = catalog_[s.ops[c.op].tmpl].expected;
    bool ok = status == 200 && body_len == want.size() &&
              c.in.compare(hdr + 4, body_len, want) == 0 &&
              c.in.size() == hdr + 4 + body_len;
    finish(ci, status, ok);
    return close_after;
  }

  void finish(size_t ci, int status, bool ok) {
    Conn& c = conns_[ci];
    Stream& s = phase_->streams[c.stream];
    Op& op = s.ops[c.op];
    op.done = now_ns() - start_;
    op.status = status;
    op.ok = ok;
    ++s.completed;
    c.busy = false;
    c.out = nullptr;
    c.in.clear();
  }

  const Plan& plan_;
  const std::vector<Template>& catalog_;
  int ep_ = -1;
  int tfd_ = -1;
  std::vector<Conn> conns_;
  Phase* phase_ = nullptr;
  uint64_t start_ = 0;
};

void write_ops(const Phase& ph, const std::string& path) {
  std::string out;
  char line[160];
  for (size_t si = 0; si < ph.streams.size(); ++si) {
    for (const Op& op : ph.streams[si].ops) {
      int n = std::snprintf(line, sizeof(line), "%zu %u %llu %llu %llu %d %d\n",
                            si, op.tmpl, static_cast<unsigned long long>(op.due),
                            static_cast<unsigned long long>(op.send),
                            static_cast<unsigned long long>(op.done), op.status,
                            op.ok ? 1 : 0);
      out.append(line, static_cast<size_t>(n));
    }
  }
  write_file(path, out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: pb_loadgen <plan-file>\n");
    return 2;
  }
  // Precise open-loop pacing: no timer slack on our own wake-ups.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Plan plan = load_plan(argv[1]);
  std::vector<Template> catalog = load_templates(plan.catalog);
  for (const Phase& ph : plan.phases) {
    for (const Stream& s : ph.streams) {
      for (const Op& op : s.ops) {
        if (op.tmpl >= catalog.size()) die("plan: template out of range");
      }
    }
  }
  Client client(plan, catalog);
  for (Phase& ph : plan.phases) {
    const std::string base = plan.outdir + "/" + ph.name;
    write_file(base + ".stats0.json", http_get(plan.port, "/admin/stats"));
    write_proc_snapshot(plan, base + ".pre", true);
    client.run_phase(ph);
    write_proc_snapshot(plan, base + ".post", false);
    write_file(base + ".stats1.json", http_get(plan.port, "/admin/stats"));
    write_ops(ph, base + ".req");
  }
  return 0;
}
