#include "net/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "net/domain.hpp"

namespace empls::net {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') {
      break;  // trailing comment
    }
    out.push_back(tok);
  }
  return out;
}

std::optional<double> parse_number(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  double v = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return v;
}

/// Split "key=value"; returns nullopt for non-option tokens.
std::optional<std::pair<std::string, std::string>> split_option(
    const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) {
    return std::nullopt;
  }
  return std::make_pair(tok.substr(0, eq), tok.substr(eq + 1));
}

}  // namespace

std::optional<double> parse_bandwidth(std::string_view text) {
  double scale = 1.0;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k':
        scale = 1e3;
        text.remove_suffix(1);
        break;
      case 'M':
        scale = 1e6;
        text.remove_suffix(1);
        break;
      case 'G':
        scale = 1e9;
        text.remove_suffix(1);
        break;
      default:
        break;
    }
  }
  const auto v = parse_number(text);
  if (!v || *v <= 0) {
    return std::nullopt;
  }
  return *v * scale;
}

std::optional<SimTime> parse_time(std::string_view text) {
  double scale = 1.0;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    scale = 1e-3;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    scale = 1e-6;
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ns") {
    scale = 1e-9;
    text.remove_suffix(2);
  } else if (!text.empty() && text.back() == 's') {
    text.remove_suffix(1);
  }
  const auto v = parse_number(text);
  if (!v || *v < 0) {
    return std::nullopt;
  }
  return *v * scale;
}

std::string_view to_string(ExpectDecl::Op op) noexcept {
  switch (op) {
    case ExpectDecl::Op::kLt:
      return "<";
    case ExpectDecl::Op::kLe:
      return "<=";
    case ExpectDecl::Op::kGt:
      return ">";
    case ExpectDecl::Op::kGe:
      return ">=";
    case ExpectDecl::Op::kEq:
      return "==";
    case ExpectDecl::Op::kNe:
      return "!=";
  }
  return "?";
}

bool Scenario::has_router(const std::string& name) const {
  return std::any_of(routers.begin(), routers.end(),
                     [&](const RouterDecl& r) { return r.name == name; });
}

std::variant<Scenario, ScenarioError> Scenario::parse(std::string_view text) {
  Scenario s;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  int sample_line = 0;    // where `sample` was declared, for the
  int timeline_line = 0;  // cross-directive diagnostics below the loop

  auto error = [&](const std::string& message) {
    return ScenarioError{line_no, message};
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& cmd = tokens[0];

    if (cmd == "qos") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i] == "strict") {
          s.qos.scheduler = SchedulerKind::kStrictPriority;
        } else if (tokens[i] == "fifo") {
          s.qos.scheduler = SchedulerKind::kFifo;
        } else if (tokens[i] == "wrr") {
          s.qos.scheduler = SchedulerKind::kWeightedRoundRobin;
        } else if (tokens[i] == "red") {
          s.qos.drop = DropPolicy::kRed;
        } else if (const auto opt = split_option(tokens[i]);
                   opt && opt->first == "capacity") {
          const auto v = parse_number(opt->second);
          if (!v || *v < 1) {
            return error("bad qos capacity: " + opt->second);
          }
          s.qos.queue_capacity = static_cast<std::size_t>(*v);
        } else {
          return error("unknown qos option: " + tokens[i]);
        }
      }
    } else if (cmd == "scheduler" || cmd.rfind("scheduler=", 0) == 0) {
      // Accept both spellings: `scheduler calendar` and
      // `scheduler=calendar`.
      std::string value;
      if (cmd == "scheduler") {
        if (tokens.size() != 2) {
          return error("scheduler needs: scheduler heap|calendar");
        }
        value = tokens[1];
      } else {
        if (tokens.size() != 1) {
          return error("scheduler=<backend> takes no further tokens");
        }
        value = cmd.substr(std::string_view("scheduler=").size());
      }
      if (value == "heap") {
        s.scheduler = SchedulerBackend::kHeap;
      } else if (value == "calendar") {
        s.scheduler = SchedulerBackend::kCalendar;
      } else {
        return error("unknown scheduler: " + value + " (heap|calendar)");
      }
    } else if (cmd == "domains" || cmd.rfind("domains=", 0) == 0) {
      // Event-domain partitioning; both spellings, like `scheduler`.
      std::string value;
      if (cmd == "domains") {
        if (tokens.size() != 2) {
          return error("domains needs: domains <N>|auto");
        }
        value = tokens[1];
      } else {
        if (tokens.size() != 1) {
          return error("domains=<N>|auto takes no further tokens");
        }
        value = cmd.substr(std::string_view("domains=").size());
      }
      if (value == "auto") {
        s.domains = 0;  // resolved to the hardware thread count at run
      } else {
        const std::optional<double> n = parse_number(value);
        if (!n || *n < 1 || *n > 256 ||
            *n != static_cast<double>(static_cast<std::size_t>(*n))) {
          return error("domains must be an integer in [1,256] or auto");
        }
        s.domains = static_cast<std::size_t>(*n);
      }
    } else if (cmd == "sync" || cmd.rfind("sync=", 0) == 0) {
      std::string value;
      if (cmd == "sync") {
        if (tokens.size() != 2) {
          return error("sync needs: sync deterministic|free");
        }
        value = tokens[1];
      } else {
        if (tokens.size() != 1) {
          return error("sync=<mode> takes no further tokens");
        }
        value = cmd.substr(std::string_view("sync=").size());
      }
      if (value == "deterministic") {
        s.sync = SyncMode::kDeterministic;
      } else if (value == "free") {
        s.sync = SyncMode::kFree;
      } else {
        return error("unknown sync mode: " + value +
                     " (deterministic|free)");
      }
    } else if (cmd == "trace" || cmd.rfind("trace=", 0) == 0 ||
               cmd == "metrics" || cmd.rfind("metrics=", 0) == 0) {
      // Telemetry outputs; both spellings, like `scheduler`.  "off"
      // (the default) leaves the corresponding exporter unarmed.
      const bool is_trace = cmd[0] == 't';
      const char* name = is_trace ? "trace" : "metrics";
      std::string value;
      if (cmd == name) {
        if (tokens.size() != 2) {
          return error(std::string(name) + " needs: " + name +
                       " <path>|off");
        }
        value = tokens[1];
      } else {
        if (tokens.size() != 1) {
          return error(std::string(name) +
                       "=<path> takes no further tokens");
        }
        value = cmd.substr(std::string(name).size() + 1);
      }
      if (value == "off") {
        value.clear();
      }
      (is_trace ? s.trace_path : s.metrics_path) = std::move(value);
    } else if (cmd == "timeline" || cmd.rfind("timeline=", 0) == 0) {
      std::string value;
      if (cmd == "timeline") {
        if (tokens.size() != 2) {
          return error("timeline needs: timeline <path>|off");
        }
        value = tokens[1];
      } else {
        if (tokens.size() != 1) {
          return error("timeline=<path> takes no further tokens");
        }
        value = cmd.substr(std::string_view("timeline=").size());
      }
      if (value == "off") {
        value.clear();
      }
      s.timeline_path = std::move(value);
      timeline_line = line_no;
    } else if (cmd == "sample" || cmd.rfind("sample=", 0) == 0) {
      std::string value;
      if (cmd == "sample") {
        if (tokens.size() != 2) {
          return error("sample needs: sample <interval>");
        }
        value = tokens[1];
      } else {
        if (tokens.size() != 1) {
          return error("sample=<interval> takes no further tokens");
        }
        value = cmd.substr(std::string_view("sample=").size());
      }
      const auto v = parse_time(value);
      if (!v || *v <= 0) {
        return error("bad sample interval: " + value);
      }
      s.sample_interval = *v;
      sample_line = line_no;
    } else if (cmd == "profile") {
      if (tokens.size() > 2 ||
          (tokens.size() == 2 && tokens[1] != "on" && tokens[1] != "off")) {
        return error("profile takes on|off");
      }
      s.profile = tokens.size() < 2 || tokens[1] == "on";
    } else if (cmd == "expect") {
      // expect <metric> <op> <value> [during <t0>..<t1>]
      if (tokens.size() != 4 && tokens.size() != 6) {
        return error("expect needs: expect <metric> <op> <value> "
                     "[during <t0>..<t1>]");
      }
      ExpectDecl e;
      e.metric = tokens[1];
      if (tokens[2] == "<") {
        e.op = ExpectDecl::Op::kLt;
      } else if (tokens[2] == "<=") {
        e.op = ExpectDecl::Op::kLe;
      } else if (tokens[2] == ">") {
        e.op = ExpectDecl::Op::kGt;
      } else if (tokens[2] == ">=") {
        e.op = ExpectDecl::Op::kGe;
      } else if (tokens[2] == "==") {
        e.op = ExpectDecl::Op::kEq;
      } else if (tokens[2] == "!=") {
        e.op = ExpectDecl::Op::kNe;
      } else {
        return error("expect op must be one of < <= > >= == !=, got " +
                     tokens[2]);
      }
      const auto v = parse_number(tokens[3]);
      if (!v) {
        return error("bad expect value: " + tokens[3]);
      }
      e.value = *v;
      if (tokens.size() == 6) {
        if (tokens[4] != "during") {
          return error("expect window needs: during <t0>..<t1>, got " +
                       tokens[4]);
        }
        const auto dots = tokens[5].find("..");
        if (dots == std::string::npos) {
          return error("expect window needs <t0>..<t1>, got " + tokens[5]);
        }
        const auto t0 = parse_time(tokens[5].substr(0, dots));
        const auto t1 = parse_time(tokens[5].substr(dots + 2));
        if (!t0 || !t1 || *t1 < *t0) {
          return error("bad expect window: " + tokens[5]);
        }
        e.windowed = true;
        e.t0 = *t0;
        e.t1 = *t1;
      }
      e.line = line_no;
      e.source = tokens[1] + " " + tokens[2] + " " + tokens[3];
      if (e.windowed) {
        e.source += " during " + tokens[5];
      }
      s.expects.push_back(std::move(e));
    } else if (cmd == "router") {
      if (tokens.size() < 3) {
        return error("router needs: router <name> ler|lsr [options]");
      }
      RouterDecl r;
      r.name = tokens[1];
      if (tokens[2] == "ler") {
        r.is_ler = true;
      } else if (tokens[2] == "lsr") {
        r.is_ler = false;
      } else {
        return error("router type must be ler or lsr, got " + tokens[2]);
      }
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt) {
          return error("bad router option: " + tokens[i]);
        }
        if (opt->first == "engine") {
          const auto kind = parse_engine_kind(opt->second);
          if (!kind) {
            return error("unknown engine: " + opt->second);
          }
          r.engine = *kind;
        } else if (opt->first == "cache") {
          if (opt->second == "off") {
            r.cache = 0;
          } else {
            const auto v = parse_number(opt->second);
            if (!v || *v < 1 || *v > 1048576 ||
                *v != static_cast<double>(static_cast<std::size_t>(*v))) {
              return error("bad cache size (want 1..1048576 or off): " +
                           opt->second);
            }
            r.cache = static_cast<std::size_t>(*v);
          }
        } else if (opt->first == "clock") {
          const auto v = parse_bandwidth(opt->second);  // same suffixes
          if (!v) {
            return error("bad clock: " + opt->second);
          }
          r.clock_hz = *v;
        } else {
          return error("unknown router option: " + opt->first);
        }
      }
      if (s.has_router(r.name)) {
        return error("duplicate router: " + r.name);
      }
      s.routers.push_back(std::move(r));
    } else if (cmd == "link") {
      if (tokens.size() != 5) {
        return error("link needs: link <a> <b> <bandwidth> <delay>");
      }
      LinkDecl l;
      l.a = tokens[1];
      l.b = tokens[2];
      if (!s.has_router(l.a) || !s.has_router(l.b)) {
        return error("link references undeclared router");
      }
      const auto bw = parse_bandwidth(tokens[3]);
      const auto delay = parse_time(tokens[4]);
      if (!bw) {
        return error("bad bandwidth: " + tokens[3]);
      }
      if (!delay) {
        return error("bad delay: " + tokens[4]);
      }
      l.bandwidth_bps = *bw;
      l.delay = *delay;
      s.links.push_back(std::move(l));
    } else if (cmd == "lsp" || cmd == "lsp-cspf") {
      if (tokens.size() < 4) {
        return error(cmd + " needs: " + cmd + " <prefix> <nodes...>");
      }
      LspDecl l;
      const auto fec = mpls::Prefix::parse(tokens[1]);
      if (!fec) {
        return error("bad prefix: " + tokens[1]);
      }
      l.fec = *fec;
      l.cspf = cmd == "lsp-cspf";
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "php") {
          l.php = true;
        } else if (tokens[i] == "merge") {
          l.merge = true;
        } else if (const auto opt = split_option(tokens[i])) {
          if (opt->first != "bw") {
            return error("unknown lsp option: " + opt->first);
          }
          const auto bw = parse_bandwidth(opt->second);
          if (!bw) {
            return error("bad bw: " + opt->second);
          }
          l.bw = *bw;
        } else {
          if (!s.has_router(tokens[i])) {
            return error("lsp references undeclared router: " + tokens[i]);
          }
          l.path.push_back(tokens[i]);
        }
      }
      if (l.path.size() < 2) {
        return error("lsp needs at least two nodes");
      }
      if (l.cspf && l.path.size() != 2) {
        return error("lsp-cspf takes exactly ingress and egress");
      }
      s.lsps.push_back(std::move(l));
    } else if (cmd == "tunnel") {
      if (tokens.size() < 5) {
        return error("tunnel needs: tunnel <name> <n1> <n2> <n3> ...");
      }
      TunnelDecl t;
      t.name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (!s.has_router(tokens[i])) {
          return error("tunnel references undeclared router: " + tokens[i]);
        }
        t.path.push_back(tokens[i]);
      }
      s.tunnels.push_back(std::move(t));
    } else if (cmd == "lsp-via-tunnel") {
      // lsp-via-tunnel <prefix> pre <n..> tunnel <name> post <n..> [bw=]
      if (tokens.size() < 8) {
        return error("lsp-via-tunnel needs pre/tunnel/post sections");
      }
      LspViaTunnelDecl l;
      const auto fec = mpls::Prefix::parse(tokens[1]);
      if (!fec) {
        return error("bad prefix: " + tokens[1]);
      }
      l.fec = *fec;
      enum { kNone, kPre, kPost } section = kNone;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "pre") {
          section = kPre;
        } else if (tokens[i] == "post") {
          section = kPost;
        } else if (tokens[i] == "tunnel") {
          if (i + 1 >= tokens.size()) {
            return error("tunnel section needs a name");
          }
          l.tunnel = tokens[++i];
          section = kNone;
        } else if (const auto opt = split_option(tokens[i])) {
          if (opt->first != "bw") {
            return error("unknown option: " + opt->first);
          }
          const auto bw = parse_bandwidth(opt->second);
          if (!bw) {
            return error("bad bw: " + opt->second);
          }
          l.bw = *bw;
        } else if (section == kPre || section == kPost) {
          if (!s.has_router(tokens[i])) {
            return error("lsp-via-tunnel references undeclared router: " +
                         tokens[i]);
          }
          (section == kPre ? l.pre : l.post).push_back(tokens[i]);
        } else {
          return error("unexpected token: " + tokens[i]);
        }
      }
      if (l.pre.empty() || l.post.empty() || l.tunnel.empty()) {
        return error("lsp-via-tunnel needs pre nodes, a tunnel and post "
                     "nodes");
      }
      s.tunnel_lsps.push_back(std::move(l));
    } else if (cmd == "flow") {
      if (tokens.size() < 5) {
        return error("flow needs: flow <kind> <id> <ingress> <dst> [opts]");
      }
      FlowDecl f;
      f.kind = tokens[1];
      if (f.kind != "cbr" && f.kind != "poisson" && f.kind != "video" &&
          f.kind != "onoff") {
        return error("unknown flow kind: " + f.kind);
      }
      const auto id = parse_number(tokens[2]);
      if (!id || *id < 0) {
        return error("bad flow id: " + tokens[2]);
      }
      f.id = static_cast<std::uint32_t>(*id);
      f.ingress = tokens[3];
      if (!s.has_router(f.ingress)) {
        return error("flow ingress not declared: " + f.ingress);
      }
      if (!mpls::Ipv4Address::parse(tokens[4])) {
        return error("bad destination address: " + tokens[4]);
      }
      f.dst = tokens[4];
      for (std::size_t i = 5; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt) {
          return error("bad flow option: " + tokens[i]);
        }
        const auto& [key, value] = *opt;
        if (key == "cos") {
          const auto v = parse_number(value);
          if (!v || *v < 0 || *v > 7) {
            return error("cos must be 0..7");
          }
          f.cos = static_cast<std::uint8_t>(*v);
        } else if (key == "size") {
          const auto v = parse_number(value);
          if (!v || *v < 0) {
            return error("bad size");
          }
          f.size = static_cast<std::size_t>(*v);
        } else if (key == "start") {
          const auto v = parse_time(value);
          if (!v) {
            return error("bad start");
          }
          f.start = *v;
        } else if (key == "stop") {
          const auto v = parse_time(value);
          if (!v) {
            return error("bad stop");
          }
          f.stop = *v;
        } else if (key == "interval") {
          const auto v = parse_time(value);
          if (!v || *v <= 0) {
            return error("bad interval");
          }
          f.interval = *v;
        } else if (key == "rate") {
          const auto v = parse_number(value);
          if (!v || *v <= 0) {
            return error("bad rate");
          }
          f.rate = *v;
        } else if (key == "seed") {
          const auto v = parse_number(value);
          if (!v) {
            return error("bad seed");
          }
          f.seed = static_cast<std::uint64_t>(*v);
        } else if (key == "fps") {
          const auto v = parse_number(value);
          if (!v || *v <= 0) {
            return error("bad fps");
          }
          f.fps = *v;
        } else if (key == "ppf") {
          const auto v = parse_number(value);
          if (!v || *v < 1) {
            return error("bad ppf");
          }
          f.ppf = static_cast<unsigned>(*v);
        } else if (key == "on") {
          const auto v = parse_time(value);
          if (!v || *v <= 0) {
            return error("bad on duration");
          }
          f.mean_on = *v;
        } else if (key == "off") {
          const auto v = parse_time(value);
          if (!v || *v <= 0) {
            return error("bad off duration");
          }
          f.mean_off = *v;
        } else {
          return error("unknown flow option: " + key);
        }
      }
      s.flows.push_back(std::move(f));
    } else if (cmd == "fail" || cmd == "restore") {
      if (tokens.size() != 4) {
        return error(cmd + " needs: " + cmd + " <time> <a> <b>");
      }
      LinkEventDecl e;
      const auto at = parse_time(tokens[1]);
      if (!at) {
        return error("bad time: " + tokens[1]);
      }
      e.at = *at;
      e.a = tokens[2];
      e.b = tokens[3];
      if (!s.has_router(e.a) || !s.has_router(e.b)) {
        return error(cmd + " references undeclared router");
      }
      e.up = cmd == "restore";
      s.link_events.push_back(std::move(e));
    } else if (cmd == "flap") {
      if (tokens.size() != 5) {
        return error("flap needs: flap <time> <a> <b> <down-for>");
      }
      FlapDecl f;
      const auto at = parse_time(tokens[1]);
      if (!at) {
        return error("bad time: " + tokens[1]);
      }
      f.at = *at;
      f.a = tokens[2];
      f.b = tokens[3];
      if (!s.has_router(f.a) || !s.has_router(f.b)) {
        return error("flap references undeclared router");
      }
      const auto down = parse_time(tokens[4]);
      if (!down || *down <= 0) {
        return error("bad flap duration: " + tokens[4]);
      }
      f.down_for = *down;
      s.flaps.push_back(std::move(f));
    } else if (cmd == "crash") {
      if (tokens.size() < 3) {
        return error("crash needs: crash <time> <node> [for=dur]");
      }
      CrashDecl c;
      const auto at = parse_time(tokens[1]);
      if (!at) {
        return error("bad time: " + tokens[1]);
      }
      c.at = *at;
      c.node = tokens[2];
      if (!s.has_router(c.node)) {
        return error("crash references undeclared router: " + c.node);
      }
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt || opt->first != "for") {
          return error("unknown crash option: " + tokens[i]);
        }
        const auto v = parse_time(opt->second);
        if (!v || *v <= 0) {
          return error("bad crash duration: " + opt->second);
        }
        c.duration = *v;
      }
      s.crashes.push_back(std::move(c));
    } else if (cmd == "corrupt") {
      if (tokens.size() < 3) {
        return error(
            "corrupt needs: corrupt <time> <node> [salt=N] [resync=dur]");
      }
      CorruptDecl c;
      const auto at = parse_time(tokens[1]);
      if (!at) {
        return error("bad time: " + tokens[1]);
      }
      c.at = *at;
      c.node = tokens[2];
      if (!s.has_router(c.node)) {
        return error("corrupt references undeclared router: " + c.node);
      }
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt) {
          return error("unknown corrupt option: " + tokens[i]);
        }
        if (opt->first == "salt") {
          const auto v = parse_number(opt->second);
          if (!v || *v < 0) {
            return error("bad salt: " + opt->second);
          }
          c.salt = static_cast<std::uint64_t>(*v);
        } else if (opt->first == "resync") {
          const auto v = parse_time(opt->second);
          if (!v || *v <= 0) {
            return error("bad resync delay: " + opt->second);
          }
          c.resync = *v;
        } else {
          return error("unknown corrupt option: " + opt->first);
        }
      }
      s.corruptions.push_back(std::move(c));
    } else if (cmd == "protect") {
      s.protect = true;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt || opt->first != "bw") {
          return error("unknown protect option: " + tokens[i]);
        }
        const auto bw = parse_bandwidth(opt->second);
        if (!bw) {
          return error("bad protect bw: " + opt->second);
        }
        s.protect_bw = *bw;
      }
    } else if (cmd == "police") {
      if (tokens.size() < 4) {
        return error("police needs: police <ingress> <flow-id> <rate> "
                     "[burst=N] [demote]");
      }
      Scenario::PolicerDecl p;
      p.ingress = tokens[1];
      if (!s.has_router(p.ingress)) {
        return error("police ingress not declared: " + p.ingress);
      }
      const auto flow = parse_number(tokens[2]);
      if (!flow || *flow < 0) {
        return error("bad flow id: " + tokens[2]);
      }
      p.flow_id = static_cast<std::uint32_t>(*flow);
      const auto rate = parse_bandwidth(tokens[3]);
      if (!rate) {
        return error("bad rate: " + tokens[3]);
      }
      p.rate_bps = *rate;
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        if (tokens[i] == "demote") {
          p.demote = true;
        } else if (const auto opt = split_option(tokens[i]);
                   opt && opt->first == "burst") {
          const auto v = parse_number(opt->second);
          if (!v || *v <= 0) {
            return error("bad burst: " + opt->second);
          }
          p.burst_bytes = *v;
        } else {
          return error("unknown police option: " + tokens[i]);
        }
      }
      s.policers.push_back(std::move(p));
    } else if (cmd == "loadgen") {
      if (tokens.size() < 4) {
        return error("loadgen needs: loadgen poisson|mmpp <ingress> <dst> "
                     "[opts]");
      }
      LoadGenDecl g;
      g.kind = tokens[1];
      if (g.kind != "poisson" && g.kind != "mmpp") {
        return error("unknown loadgen arrivals: " + g.kind);
      }
      g.ingress = tokens[2];
      if (!s.has_router(g.ingress)) {
        return error("loadgen ingress not declared: " + g.ingress);
      }
      if (!mpls::Ipv4Address::parse(tokens[3])) {
        return error("bad destination address: " + tokens[3]);
      }
      g.dst = tokens[3];
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt) {
          return error("bad loadgen option: " + tokens[i]);
        }
        const auto& [key, value] = *opt;
        if (key == "rate" || key == "burst-rate") {
          const auto v = parse_bandwidth(value);  // k/M suffixes as pps
          if (!v || (key == "rate" ? *v <= 0 : *v < 0)) {
            return error("bad " + key + ": " + value);
          }
          (key == "rate" ? g.rate_pps : g.burst_rate_pps) = *v;
        } else if (key == "sojourn") {
          const auto v = parse_time(value);
          if (!v || *v <= 0) {
            return error("bad sojourn: " + value);
          }
          g.sojourn = *v;
        } else if (key == "flows") {
          const auto v = parse_number(value);
          if (!v || *v < 1 || *v > 16e6) {
            return error("bad flows (want 1..16M): " + value);
          }
          g.flows = static_cast<std::size_t>(*v);
        } else if (key == "alpha") {
          const auto v = parse_number(value);
          if (!v || *v <= 0) {
            return error("bad alpha: " + value);
          }
          g.alpha = *v;
        } else if (key == "minpkts") {
          const auto v = parse_number(value);
          if (!v || *v < 1) {
            return error("bad minpkts: " + value);
          }
          g.min_packets = static_cast<unsigned>(*v);
        } else if (key == "cos") {
          const auto v = parse_number(value);
          if (!v || *v < 0 || *v > 7) {
            return error("cos must be 0..7");
          }
          g.cos = static_cast<std::uint8_t>(*v);
        } else if (key == "size") {
          const auto v = parse_number(value);
          if (!v || *v < 0) {
            return error("bad size");
          }
          g.size = static_cast<std::size_t>(*v);
        } else if (key == "seed") {
          const auto v = parse_number(value);
          if (!v) {
            return error("bad seed");
          }
          g.seed = static_cast<std::uint64_t>(*v);
        } else if (key == "start" || key == "stop") {
          const auto v = parse_time(value);
          if (!v) {
            return error("bad " + key);
          }
          (key == "start" ? g.start : g.stop) = *v;
        } else {
          return error("unknown loadgen option: " + key);
        }
      }
      s.loadgens.push_back(std::move(g));
    } else if (cmd == "attack" || cmd.rfind("attack=", 0) == 0) {
      // Both spellings: `attack spoof <time> <ingress>` and the survey
      // shorthand `attack=spoof <time> <ingress>`.
      AttackDecl a;
      std::size_t arg = 1;
      if (cmd == "attack") {
        if (tokens.size() < 4) {
          return error("attack needs: attack <kind> <time> <ingress> "
                       "[opts]");
        }
        a.kind = tokens[arg++];
      } else {
        if (tokens.size() < 3) {
          return error("attack=<kind> needs: attack=<kind> <time> "
                       "<ingress> [opts]");
        }
        a.kind = cmd.substr(std::string_view("attack=").size());
      }
      if (a.kind != "spoof" && a.kind != "ttl_flood" &&
          a.kind != "reserved" && a.kind != "exhaust") {
        return error("unknown attack kind: " + a.kind +
                     " (spoof|ttl_flood|reserved|exhaust)");
      }
      const auto at = parse_time(tokens[arg]);
      if (!at) {
        return error("bad time: " + tokens[arg]);
      }
      a.at = *at;
      ++arg;
      a.ingress = tokens[arg];
      if (!s.has_router(a.ingress)) {
        return error("attack ingress not declared: " + a.ingress);
      }
      ++arg;
      for (; arg < tokens.size(); ++arg) {
        const auto opt = split_option(tokens[arg]);
        if (!opt) {
          return error("bad attack option: " + tokens[arg]);
        }
        const auto& [key, value] = *opt;
        if (key == "rate") {
          const auto v = parse_bandwidth(value);
          if (!v || *v <= 0) {
            return error("bad rate: " + value);
          }
          a.rate_pps = *v;
        } else if (key == "for") {
          const auto v = parse_time(value);
          if (!v || *v <= 0) {
            return error("bad attack duration: " + value);
          }
          a.duration = *v;
        } else if (key == "seed") {
          const auto v = parse_number(value);
          if (!v) {
            return error("bad seed");
          }
          a.seed = static_cast<std::uint64_t>(*v);
        } else if (key == "dst") {
          if (!mpls::Ipv4Address::parse(value)) {
            return error("bad attack dst: " + value);
          }
          a.dst = value;
        } else if (key == "cos") {
          const auto v = parse_number(value);
          if (!v || *v < 0 || *v > 7) {
            return error("cos must be 0..7");
          }
          a.cos = static_cast<std::uint8_t>(*v);
        } else {
          return error("unknown attack option: " + key);
        }
      }
      s.attacks.push_back(std::move(a));
    } else if (cmd == "guard") {
      if (tokens.size() < 2) {
        return error("guard needs: guard <router>|* [opts]");
      }
      GuardDecl g;
      g.router = tokens[1];
      if (g.router != "*" && !s.has_router(g.router)) {
        return error("guard references undeclared router: " + g.router);
      }
      g.config.enabled = true;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt) {
          return error("bad guard option: " + tokens[i]);
        }
        const auto& [key, value] = *opt;
        if (key == "ttl" || key == "reprogram") {
          const auto v = parse_bandwidth(value);  // rates; k/M suffixes
          if (!v) {
            return error("bad " + key + " rate: " + value);
          }
          (key == "ttl" ? g.config.ttl_expiry_pps
                        : g.config.reprogram_per_s) = *v;
        } else if (key == "demote" || key == "shed") {
          const auto v = parse_number(value);
          if (!v || *v < 0 || *v > 1.0) {
            return error("bad " + key + " occupancy (want 0..1): " + value);
          }
          (key == "demote" ? g.config.demote_occupancy
                           : g.config.shed_occupancy) = *v;
        } else if (key == "maxcos") {
          const auto v = parse_number(value);
          if (!v || *v < 0 || *v > 7) {
            return error("maxcos must be 0..7");
          }
          g.config.demote_cos_max = static_cast<std::uint8_t>(*v);
        } else if (key == "reserved" || key == "spoof") {
          if (value != "on" && value != "off") {
            return error(key + " wants on|off, got " + value);
          }
          (key == "reserved" ? g.config.check_reserved
                             : g.config.check_spoof) = value == "on";
        } else {
          return error("unknown guard option: " + key);
        }
      }
      s.guards.push_back(std::move(g));
    } else if (cmd == "ping" || cmd == "traceroute") {
      if (tokens.size() != 4) {
        return error(cmd + " needs: " + cmd + " <time> <ingress> <dst>");
      }
      OamDecl o;
      const auto at = parse_time(tokens[1]);
      if (!at) {
        return error("bad time: " + tokens[1]);
      }
      o.at = *at;
      o.traceroute = cmd == "traceroute";
      o.ingress = tokens[2];
      if (!s.has_router(o.ingress)) {
        return error(cmd + " ingress not declared: " + o.ingress);
      }
      if (!mpls::Ipv4Address::parse(tokens[3])) {
        return error("bad destination address: " + tokens[3]);
      }
      o.dst = tokens[3];
      s.oam_probes.push_back(std::move(o));
    } else if (cmd == "autorepair") {
      if (tokens.size() < 2) {
        return error("autorepair needs a hello interval");
      }
      const auto hello = parse_time(tokens[1]);
      if (!hello || *hello <= 0) {
        return error("bad hello interval: " + tokens[1]);
      }
      s.autorepair_hello = *hello;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto opt = split_option(tokens[i]);
        if (!opt || opt->first != "dead") {
          return error("unknown autorepair option: " + tokens[i]);
        }
        const auto v = parse_number(opt->second);
        if (!v || *v < 1) {
          return error("bad dead multiplier: " + opt->second);
        }
        s.autorepair_dead = static_cast<unsigned>(*v);
      }
    } else if (cmd == "run") {
      if (tokens.size() != 2) {
        return error("run needs a duration");
      }
      const auto v = parse_time(tokens[1]);
      if (!v) {
        return error("bad duration: " + tokens[1]);
      }
      s.run_duration = *v;
    } else {
      return error("unknown directive: " + cmd);
    }
  }
  // Cross-directive validation: the runner pre-schedules timeline ticks
  // over the run window, so sampling needs a bounded run; windowed
  // assertions read the timeline, so they need sampling.
  if (s.sample_interval && !s.run_duration) {
    return ScenarioError{sample_line, "sample requires a run duration"};
  }
  for (const ExpectDecl& e : s.expects) {
    if (e.windowed && !s.sample_interval) {
      return ScenarioError{
          e.line, "expect ... during needs a sample interval (line " +
                      std::to_string(e.line) + ")"};
    }
  }
  if (!s.timeline_path.empty() && !s.sample_interval) {
    return ScenarioError{timeline_line,
                         "timeline output requires a sample interval"};
  }
  return s;
}

}  // namespace empls::net
