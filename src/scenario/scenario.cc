#include "scenario/scenario.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/parse.h"
#include "workload/access.h"
#include "workload/arrival.h"

namespace unicc {

namespace {

// Points error messages at the offending file location. Entries injected
// programmatically (IniFile::Set, e.g. sweep overrides) have no line.
std::string Where(const IniEntry& e) {
  if (e.line > 0) return "line " + std::to_string(e.line) + ": ";
  return "override: ";
}

Status BadValue(const IniEntry& e, const std::string& what) {
  return Status::InvalidArgument(Where(e) + "key '" + e.key + "': " + what +
                                 " (got '" + e.value + "')");
}

// An unsigned integer that fits T and is >= min. Every integer key goes
// through here, so a value never narrows silently into its field.
template <typename T>
Status ParseCount(const IniEntry& e, T* out, std::uint64_t min = 0) {
  T v = 0;
  if (!ParseNumber(e.value, &v)) {
    return BadValue(e, "expected an unsigned integer <= " +
                       std::to_string(std::numeric_limits<T>::max()));
  }
  if (v < min) return BadValue(e, "must be >= " + std::to_string(min));
  *out = v;
  return Status::OK();
}

// A finite number: NaN would pass every range check below, and infinity
// breaks the arrival and access generators.
Status ParseDouble(const IniEntry& e, double* out) {
  if (!ParseNumber(e.value, out)) {
    return BadValue(e, "expected a finite number");
  }
  return Status::OK();
}

Status ParseBool(const IniEntry& e, bool* out) {
  if (e.value == "true" || e.value == "on" || e.value == "1") {
    *out = true;
  } else if (e.value == "false" || e.value == "off" || e.value == "0") {
    *out = false;
  } else {
    return BadValue(e, "expected true/false");
  }
  return Status::OK();
}

Status ParseProtocol(const IniEntry& e, Protocol* out) {
  if (!ParseProtocolToken(e.value, out)) {
    return BadValue(e, "expected 2pl/to/pa");
  }
  return Status::OK();
}

// Milliseconds (fractional allowed) -> simulated-microsecond Duration.
Status ParseMs(const IniEntry& e, Duration* out) {
  if (!ParseMillis(e.value, out)) {
    return BadValue(e, "expected milliseconds >= 0 within the simulated-time "
                       "range");
  }
  return Status::OK();
}

Status ParseFraction(const IniEntry& e, double* out) {
  if (Status s = ParseDouble(e, out); !s.ok()) return s;
  if (*out < 0 || *out > 1) return BadValue(e, "must be in [0, 1]");
  return Status::OK();
}

// "N" or "LO..HI" (inclusive).
Status ParseSizeRange(const IniEntry& e, std::uint32_t* lo,
                      std::uint32_t* hi) {
  const std::size_t dots = e.value.find("..");
  IniEntry sub = e;
  if (dots == std::string::npos) {
    if (Status s = ParseCount(e, lo); !s.ok()) return s;
    *hi = *lo;
  } else {
    sub.value = e.value.substr(0, dots);
    if (Status s = ParseCount(sub, lo); !s.ok()) return s;
    sub.value = e.value.substr(dots + 2);
    if (Status s = ParseCount(sub, hi); !s.ok()) return s;
  }
  if (*lo < 1 || *lo > *hi) {
    return BadValue(e, "expected size N or LO..HI with 1 <= LO <= HI");
  }
  return Status::OK();
}

Status ParseScenarioSection(const IniSection& sec, ScenarioSpec* spec) {
  for (const IniEntry& e : sec.entries) {
    if (e.key == "name") {
      spec->name = e.value;
    } else if (e.key == "description") {
      spec->description = e.value;
    } else if (e.key == "scale_factor") {
      if (Status s = ParseCount(e, &spec->scale_factor, 1); !s.ok()) return s;
    } else {
      return Status::InvalidArgument(Where(e) + "unknown [scenario] key '" +
                                     e.key + "'");
    }
  }
  return Status::OK();
}

Status ParseEngineSection(const IniSection& sec, EngineOptions* eo,
                          bool* saw_items) {
  for (const IniEntry& e : sec.entries) {
    if (e.key == "user_sites") {
      if (Status s = ParseCount(e, &eo->num_user_sites); !s.ok()) return s;
    } else if (e.key == "data_sites") {
      if (Status s = ParseCount(e, &eo->num_data_sites); !s.ok()) return s;
    } else if (e.key == "items") {
      if (Status s = ParseCount(e, &eo->num_items); !s.ok()) return s;
      *saw_items = true;
    } else if (e.key == "replication") {
      if (Status s = ParseCount(e, &eo->replication); !s.ok()) return s;
    } else if (e.key == "backend") {
      if (e.value == "unified") {
        eo->backend = BackendKind::kUnified;
      } else if (e.value == "pure") {
        eo->backend = BackendKind::kPure;
      } else {
        return BadValue(e, "expected unified/pure");
      }
    } else if (e.key == "protocol") {
      if (Status s = ParseProtocol(e, &eo->pure_protocol); !s.ok()) return s;
    } else if (e.key == "detector") {
      if (e.value == "central") {
        eo->detector = DetectorKind::kCentral;
      } else if (e.value == "none") {
        eo->detector = DetectorKind::kNone;
      } else {
        return BadValue(e, "expected central/none");
      }
    } else if (e.key == "semi_locks") {
      if (Status s = ParseBool(e, &eo->semi_locks); !s.ok()) return s;
    } else if (e.key == "delay_ms") {
      if (Status s = ParseMs(e, &eo->network.base_delay); !s.ok()) return s;
    } else if (e.key == "jitter_ms") {
      if (Status s = ParseMs(e, &eo->network.jitter_mean); !s.ok()) return s;
    } else if (e.key == "skew_ms") {
      if (Status s = ParseMs(e, &eo->max_clock_skew); !s.ok()) return s;
    } else if (e.key == "restart_delay_ms") {
      if (Status s = ParseMs(e, &eo->restart_delay_mean); !s.ok()) return s;
    } else if (e.key == "backoff_interval") {
      if (Status s = ParseCount(e, &eo->default_backoff_interval, 1); !s.ok()) {
        return s;
      }
    } else if (e.key == "request_timeout_ms") {
      if (Status s = ParseMs(e, &eo->request_timeout); !s.ok()) return s;
    } else if (e.key == "seed") {
      if (Status s = ParseCount(e, &eo->seed); !s.ok()) return s;
    } else {
      return Status::InvalidArgument(Where(e) + "unknown [engine] key '" +
                                     e.key + "'");
    }
  }
  return Status::OK();
}

Status ParsePolicySection(const IniSection& sec, ScenarioPolicy* policy,
                          EngineOptions* eo) {
  for (const IniEntry& e : sec.entries) {
    if (e.key == "kind") {
      if (e.value == "fixed") {
        policy->kind = ScenarioPolicy::Kind::kFixed;
      } else if (e.value == "mix") {
        policy->kind = ScenarioPolicy::Kind::kMix;
      } else if (e.value == "minstl") {
        policy->kind = ScenarioPolicy::Kind::kMinStl;
      } else if (e.value == "minavg") {
        policy->kind = ScenarioPolicy::Kind::kMinAvgTime;
      } else if (e.value == "trace") {
        policy->kind = ScenarioPolicy::Kind::kTrace;
      } else {
        return BadValue(e, "expected fixed/mix/minstl/minavg/trace");
      }
    } else if (e.key == "protocol") {
      if (Status s = ParseProtocol(e, &policy->fixed); !s.ok()) return s;
    } else if (e.key == "weights") {
      // "w2pl,wto,wpa", all >= 0, sum > 0.
      IniEntry sub = e;
      std::size_t pos = 0;
      double sum = 0;
      for (int i = 0; i < kNumProtocols; ++i) {
        const bool last = i + 1 == kNumProtocols;
        const std::size_t comma = e.value.find(',', pos);
        if (last != (comma == std::string::npos)) {
          return BadValue(e, "expected three comma-separated weights");
        }
        sub.value = e.value.substr(
            pos, last ? std::string::npos : comma - pos);
        if (Status s = ParseDouble(sub, &policy->weights[i]); !s.ok()) {
          return s;
        }
        if (policy->weights[i] < 0) return BadValue(e, "weights must be >= 0");
        sum += policy->weights[i];
        pos = comma + 1;
      }
      if (sum <= 0) return BadValue(e, "weights must not all be zero");
    } else if (e.key == "estimator_window_ms") {
      if (Status s = ParseMs(e, &policy->estimator_window); !s.ok()) {
        return s;
      }
    } else if (e.key == "detector_interval_ms") {
      // The central detector's snapshot-round period.
      Duration d = 0;
      if (Status s = ParseMs(e, &d); !s.ok()) return s;
      if (d == 0) return BadValue(e, "must be > 0");
      eo->central_detector.interval = d;
    } else if (e.key == "detector_timeout_ms") {
      // Central detector only: abandon a snapshot round whose replies have
      // not all arrived within this window (required under message loss).
      if (Status s = ParseMs(e, &eo->central_detector.round_timeout);
          !s.ok()) {
        return s;
      }
    } else {
      return Status::InvalidArgument(Where(e) + "unknown [policy] key '" +
                                     e.key + "'");
    }
  }
  return Status::OK();
}

Status ParseTopologySection(const IniSection& sec, FaultOptions* f) {
  for (const IniEntry& e : sec.entries) {
    if (e.key == "regions") {
      if (Status s = ParseCount(e, &f->regions, 1); !s.ok()) return s;
    } else if (e.key == "placement") {
      if (e.value == "blocked") {
        f->placement = FaultOptions::Placement::kBlocked;
      } else if (e.value == "interleave") {
        f->placement = FaultOptions::Placement::kInterleave;
      } else {
        return BadValue(e, "expected blocked/interleave");
      }
    } else if (e.key == "lan_ms") {
      if (Status s = ParseMs(e, &f->lan_delay); !s.ok()) return s;
    } else if (e.key == "wan_ms") {
      if (Status s = ParseMs(e, &f->wan_delay); !s.ok()) return s;
    } else if (e.key == "geo_ms") {
      if (Status s = ParseMs(e, &f->geo_delay); !s.ok()) return s;
    } else if (e.key == "lan_jitter_ms") {
      if (Status s = ParseMs(e, &f->lan_jitter); !s.ok()) return s;
    } else if (e.key == "wan_jitter_ms") {
      if (Status s = ParseMs(e, &f->wan_jitter); !s.ok()) return s;
    } else if (e.key == "geo_jitter_ms") {
      if (Status s = ParseMs(e, &f->geo_jitter); !s.ok()) return s;
    } else {
      return Status::InvalidArgument(Where(e) + "unknown [topology] key '" +
                                     e.key + "'");
    }
  }
  return Status::OK();
}

// "SITE@AT_MS+DOWN_MS" entries, comma-separated.
Status ParseCrashList(const IniEntry& e, std::vector<CrashEvent>* out) {
  const std::string& v = e.value;
  std::size_t pos = 0;
  bool any = false;
  while (pos <= v.size()) {
    const std::size_t comma = v.find(',', pos);
    std::string tok = v.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t b = tok.find_first_not_of(" \t");
    if (b == std::string::npos) {
      return BadValue(e, "expected SITE@AT_MS+DOWN_MS");
    }
    tok = tok.substr(b, tok.find_last_not_of(" \t") - b + 1);
    const std::size_t at = tok.find('@');
    const std::size_t plus =
        at == std::string::npos ? std::string::npos : tok.find('+', at);
    if (at == std::string::npos || plus == std::string::npos) {
      return BadValue(e, "expected SITE@AT_MS+DOWN_MS");
    }
    IniEntry sub = e;
    CrashEvent c;
    sub.value = tok.substr(0, at);
    if (Status s = ParseCount(sub, &c.site); !s.ok()) return s;
    Duration at_ms = 0;
    sub.value = tok.substr(at + 1, plus - at - 1);
    if (Status s = ParseMs(sub, &at_ms); !s.ok()) return s;
    c.at = at_ms;
    sub.value = tok.substr(plus + 1);
    if (Status s = ParseMs(sub, &c.down); !s.ok()) return s;
    if (c.down == 0) return BadValue(e, "downtime must be > 0");
    out->push_back(c);
    any = true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (!any) return BadValue(e, "expected SITE@AT_MS+DOWN_MS");
  return Status::OK();
}

Status ParseFaultSection(const IniSection& sec, FaultOptions* f) {
  for (const IniEntry& e : sec.entries) {
    if (e.key == "seed") {
      if (Status s = ParseCount(e, &f->seed); !s.ok()) return s;
    } else if (e.key == "loss") {
      if (Status s = ParseFraction(e, &f->loss); !s.ok()) return s;
      if (f->loss >= 1) return BadValue(e, "must be < 1");
    } else if (e.key == "duplicate") {
      if (Status s = ParseFraction(e, &f->duplicate); !s.ok()) return s;
    } else if (e.key == "reorder") {
      if (Status s = ParseFraction(e, &f->reorder); !s.ok()) return s;
    } else if (e.key == "reorder_ms") {
      if (Status s = ParseMs(e, &f->reorder_delay); !s.ok()) return s;
    } else if (e.key == "crashes") {
      if (Status s = ParseCrashList(e, &f->crashes); !s.ok()) return s;
    } else {
      return Status::InvalidArgument(Where(e) + "unknown [fault] key '" +
                                     e.key + "'");
    }
  }
  return Status::OK();
}

// Parses a [table NAME] section: a required row count plus whether the
// scenario scale_factor multiplies it.
Status ParseTableSection(const IniSection& sec, const std::string& name,
                         ScenarioTable* t) {
  t->name = name;
  t->line = sec.line;
  bool saw_rows = false;
  for (const IniEntry& e : sec.entries) {
    if (e.key == "rows") {
      if (Status s = ParseCount(e, &t->rows, 1); !s.ok()) return s;
      saw_rows = true;
    } else if (e.key == "scale") {
      if (Status s = ParseBool(e, &t->scale); !s.ok()) return s;
    } else {
      return Status::InvalidArgument(Where(e) + "unknown [table] key '" +
                                     e.key + "'");
    }
  }
  if (!saw_rows) {
    return Status::InvalidArgument("[table " + name + "] (line " +
                                   std::to_string(sec.line) +
                                   "): missing 'rows'");
  }
  return Status::OK();
}

// Parses one workload knob into `c`. Sets *known=false (and succeeds) for
// keys it does not handle — `txns`, `start_ms` and `table` are
// class-section-only and stay in ParseClassSection, so a phase cannot
// override them. Phase overrides reuse this parser: a phase can change
// exactly the knobs a class section can set.
Status ParseClassKey(const IniEntry& e, ScenarioClass* c, bool* known) {
  *known = true;
  if (e.key == "arrival") {
    if (e.value == "poisson") {
      c->arrival = ScenarioClass::ArrivalKind::kPoisson;
    } else if (e.value == "onoff") {
      c->arrival = ScenarioClass::ArrivalKind::kOnOff;
    } else {
      return BadValue(e, "expected poisson/onoff");
    }
  } else if (e.key == "rate") {
    if (Status s = ParseDouble(e, &c->rate); !s.ok()) return s;
    if (c->rate <= 0) return BadValue(e, "must be > 0");
  } else if (e.key == "off_rate") {
    if (Status s = ParseDouble(e, &c->off_rate); !s.ok()) return s;
    if (c->off_rate < 0) return BadValue(e, "must be >= 0");
  } else if (e.key == "on_ms") {
    if (Status s = ParseMs(e, &c->on_mean); !s.ok()) return s;
  } else if (e.key == "off_ms") {
    if (Status s = ParseMs(e, &c->off_mean); !s.ok()) return s;
  } else if (e.key == "size") {
    if (Status s = ParseSizeRange(e, &c->size_min, &c->size_max); !s.ok()) {
      return s;
    }
  } else if (e.key == "read_fraction") {
    if (Status s = ParseFraction(e, &c->read_fraction); !s.ok()) return s;
  } else if (e.key == "scan_fraction") {
    if (Status s = ParseFraction(e, &c->scan_fraction); !s.ok()) return s;
  } else if (e.key == "scan_max") {
    if (Status s = ParseCount(e, &c->scan_max, 1); !s.ok()) return s;
  } else if (e.key == "access") {
    if (e.value == "uniform") {
      c->access = ScenarioClass::AccessKind::kUniform;
    } else if (e.value == "zipf") {
      c->access = ScenarioClass::AccessKind::kZipf;
    } else if (e.value == "hotspot") {
      c->access = ScenarioClass::AccessKind::kHotspot;
    } else if (e.value == "partition") {
      c->access = ScenarioClass::AccessKind::kPartition;
    } else {
      return BadValue(e, "expected uniform/zipf/hotspot/partition");
    }
  } else if (e.key == "theta") {
    if (Status s = ParseDouble(e, &c->theta); !s.ok()) return s;
    if (c->theta < 0) return BadValue(e, "must be >= 0");
  } else if (e.key == "hot_items") {
    if (Status s = ParseCount(e, &c->hot_items, 1); !s.ok()) return s;
  } else if (e.key == "hot_fraction") {
    if (Status s = ParseFraction(e, &c->hot_fraction); !s.ok()) return s;
  } else if (e.key == "partitions") {
    if (Status s = ParseCount(e, &c->partitions, 1); !s.ok()) return s;
  } else if (e.key == "cross_fraction") {
    if (Status s = ParseFraction(e, &c->cross_fraction); !s.ok()) return s;
  } else if (e.key == "compute_ms") {
    if (Status s = ParseMs(e, &c->compute_time); !s.ok()) return s;
  } else if (e.key == "backoff_interval") {
    if (Status s = ParseCount(e, &c->backoff_interval); !s.ok()) return s;
  } else if (e.key == "priority") {
    if (Status s = ParseCount(e, &c->priority); !s.ok()) return s;
  } else if (e.key == "deadline_ms") {
    if (Status s = ParseMs(e, &c->deadline); !s.ok()) return s;
    if (c->deadline == 0) return BadValue(e, "must be > 0");
  } else if (e.key == "protocol") {
    // `policy` releases a forced class back to the scenario policy (the
    // way a phase un-forces a protocol forced earlier in the timeline).
    if (e.value == "policy") {
      c->has_protocol = false;
    } else {
      if (Status s = ParseProtocol(e, &c->protocol); !s.ok()) return s;
      c->has_protocol = true;
    }
  } else {
    *known = false;
  }
  return Status::OK();
}

Status ParseClassSection(const IniSection& sec, const std::string& name,
                         ScenarioClass* c) {
  c->name = name;
  bool saw_txns = false, saw_rate = false;
  for (const IniEntry& e : sec.entries) {
    if (e.key == "txns") {
      if (Status s = ParseCount(e, &c->txns, 1); !s.ok()) return s;
      saw_txns = true;
      continue;
    }
    if (e.key == "start_ms") {
      Duration d = 0;
      if (Status s = ParseMs(e, &d); !s.ok()) return s;
      c->start = d;
      continue;
    }
    if (e.key == "table") {
      if (e.value.empty()) return BadValue(e, "expected table name");
      c->table = e.value;
      continue;
    }
    if (e.key == "rate") saw_rate = true;
    bool known = false;
    if (Status s = ParseClassKey(e, c, &known); !s.ok()) return s;
    if (!known) {
      return Status::InvalidArgument(Where(e) + "unknown [class] key '" +
                                     e.key + "'");
    }
  }
  const std::string where =
      "[class " + name + "] (line " + std::to_string(sec.line) + "): ";
  if (!saw_txns) return Status::InvalidArgument(where + "missing 'txns'");
  if (!saw_rate) return Status::InvalidArgument(where + "missing 'rate'");
  if (c->arrival == ScenarioClass::ArrivalKind::kOnOff) {
    if (c->on_mean == 0 || c->off_mean == 0) {
      return Status::InvalidArgument(
          where + "onoff arrivals need on_ms > 0 and off_ms > 0");
    }
  }
  return Status::OK();
}

// Collects a [phase NAME] section: a required start_ms plus overrides.
// Override keys are either plain class knobs (applied to every class) or
// `CLASS.knob` (applied to that class only); they are validated against
// the declared classes after the whole file is parsed, since classes may
// be declared after phases.
Status ParsePhaseSection(const IniSection& sec, const std::string& name,
                         ScenarioPhase* ph) {
  ph->name = name;
  ph->line = sec.line;
  bool saw_start = false;
  for (const IniEntry& e : sec.entries) {
    if (e.key == "start_ms") {
      Duration d = 0;
      if (Status s = ParseMs(e, &d); !s.ok()) return s;
      ph->start = d;
      saw_start = true;
      continue;
    }
    if (e.key == "crash") {
      // SITE+DOWN_MS: the site fails when this phase starts.
      const std::size_t plus = e.value.find('+');
      if (plus == std::string::npos) {
        return BadValue(e, "expected SITE+DOWN_MS");
      }
      IniEntry sub = e;
      ScenarioPhase::Crash c;
      sub.value = e.value.substr(0, plus);
      if (Status s = ParseCount(sub, &c.site); !s.ok()) return s;
      sub.value = e.value.substr(plus + 1);
      if (Status s = ParseMs(sub, &c.down); !s.ok()) return s;
      if (c.down == 0) return BadValue(e, "downtime must be > 0");
      ph->crashes.push_back(c);
      continue;
    }
    ScenarioPhase::Override o;
    o.entry = e;
    const std::size_t dot = e.key.find('.');
    if (dot != std::string::npos) {
      o.class_name = e.key.substr(0, dot);
      o.entry.key = e.key.substr(dot + 1);
      if (o.class_name.empty() || o.entry.key.empty()) {
        return Status::InvalidArgument(Where(e) + "bad override key '" +
                                       e.key + "' (expected CLASS.knob)");
      }
    }
    ph->overrides.push_back(std::move(o));
  }
  if (!saw_start) {
    return Status::InvalidArgument("[phase " + name + "] (line " +
                                   std::to_string(sec.line) +
                                   "): missing 'start_ms'");
  }
  return Status::OK();
}

// Applies ph's overrides addressed at class `c` (plain keys or
// `c->name.knob`). Parse/range errors carry the override's line.
Status ApplyPhaseToClass(const ScenarioPhase& ph, ScenarioClass* c) {
  for (const ScenarioPhase::Override& o : ph.overrides) {
    if (!o.class_name.empty() && o.class_name != c->name) continue;
    bool known = false;
    if (Status s = ParseClassKey(o.entry, c, &known); !s.ok()) return s;
    if (!known) {
      return Status::InvalidArgument(
          Where(o.entry) + "key '" + o.entry.key +
          "' is not a phase-overridable class knob");
    }
  }
  return Status::OK();
}

Status ParseRunSection(const IniSection& sec, EngineOptions* eo) {
  for (const IniEntry& e : sec.entries) {
    if (e.key == "horizon_ms") {
      Duration d = 0;
      if (Status s = ParseMs(e, &d); !s.ok()) return s;
      eo->run.time_horizon = d;
    } else if (e.key == "commit_target") {
      if (Status s = ParseCount(e, &eo->run.commit_target); !s.ok()) return s;
    } else if (e.key == "max_inflight") {
      if (Status s = ParseCount(e, &eo->run.max_inflight); !s.ok()) return s;
    } else if (e.key == "window_ms") {
      if (Status s = ParseMs(e, &eo->metrics_window); !s.ok()) return s;
    } else if (e.key == "queue_limit") {
      if (Status s = ParseCount(e, &eo->run.queue_limit); !s.ok()) return s;
    } else if (e.key == "shed_policy") {
      if (!ParseShedPolicy(e.value, &eo->run.shed_policy)) {
        return BadValue(e, "expected block/drop_newest/drop_oldest/deadline");
      }
    } else if (e.key == "retry_limit") {
      if (Status s = ParseCount(e, &eo->run.retry_limit); !s.ok()) return s;
    } else if (e.key == "retry_ms") {
      if (Status s = ParseMs(e, &eo->run.retry_delay); !s.ok()) return s;
    } else if (e.key == "retry_max_ms") {
      if (Status s = ParseMs(e, &eo->run.retry_max_delay); !s.ok()) return s;
    } else if (e.key == "run_deadline_ms") {
      if (Status s = ParseMs(e, &eo->watchdog.run_deadline); !s.ok()) return s;
    } else if (e.key == "stall_ms") {
      if (Status s = ParseMs(e, &eo->watchdog.stall_window); !s.ok()) return s;
    } else {
      return Status::InvalidArgument(Where(e) + "unknown [run] key '" +
                                     e.key + "'");
    }
  }
  return Status::OK();
}

// Validates one (possibly phase-overridden) class configuration against
// its item range — the bound table's, or the engine's whole item count
// for unbound classes. `where` names the class and, for timeline stages,
// the phase.
Status ValidateClassWorkload(const ScenarioClass& c,
                             const EngineOptions& engine,
                             const std::string& where) {
  const ItemId range =
      c.range_items != 0 ? c.range_items : engine.num_items;
  if (c.size_max > range) {
    return Status::InvalidArgument(where + "size exceeds the item range");
  }
  if (c.scan_fraction > 0 && c.scan_max > range) {
    return Status::InvalidArgument(
        where + "scan_max exceeds the item range");
  }
  if (c.arrival == ScenarioClass::ArrivalKind::kOnOff &&
      (c.on_mean == 0 || c.off_mean == 0)) {
    return Status::InvalidArgument(
        where + "onoff arrivals need on_ms > 0 and off_ms > 0");
  }
  switch (c.access) {
    case ScenarioClass::AccessKind::kUniform:
    case ScenarioClass::AccessKind::kZipf:
      break;
    case ScenarioClass::AccessKind::kHotspot:
      if (c.hot_items == 0 || c.hot_items >= range) {
        return Status::InvalidArgument(
            where + "hotspot needs 1 <= hot_items < items");
      }
      if (c.hot_fraction >= 1.0 && c.size_max > c.hot_items) {
        return Status::InvalidArgument(
            where + "hot_fraction = 1 cannot fill size > hot_items");
      }
      if (c.hot_fraction <= 0.0 && c.size_max > range - c.hot_items) {
        return Status::InvalidArgument(
            where + "hot_fraction = 0 cannot fill size > items - hot_items");
      }
      break;
    case ScenarioClass::AccessKind::kPartition:
      if (c.partitions > range) {
        return Status::InvalidArgument(where + "more partitions than items");
      }
      if (c.cross_fraction == 0 && c.size_max > range / c.partitions) {
        return Status::InvalidArgument(
            where + "cross_fraction = 0 cannot fill size > items/partitions");
      }
      break;
  }
  return Status::OK();
}

// A pure backend serves exactly one protocol; any forced class protocol
// must match it.
Status ValidatePureProtocols(const std::vector<ScenarioClass>& classes,
                             const EngineOptions& engine,
                             const std::string& suffix) {
  for (const ScenarioClass& c : classes) {
    if (c.has_protocol && c.protocol != engine.pure_protocol) {
      return Status::InvalidArgument(
          "[class " + c.name +
          "]: forced protocol conflicts with the pure backend" + suffix);
    }
  }
  return Status::OK();
}

// Folds the timeline over the declared classes: every phase must have a
// strictly increasing start, address only known classes and knobs, and
// leave every class configuration valid.
Status ValidateTimeline(const ScenarioSpec& spec) {
  std::vector<ScenarioClass> effective = spec.classes;
  bool first = true;
  SimTime prev = 0;
  for (const ScenarioPhase& ph : spec.phases) {
    const std::string where =
        "[phase " + ph.name + "] (line " + std::to_string(ph.line) + "): ";
    if (!first && ph.start <= prev) {
      return Status::InvalidArgument(
          where + "start_ms must strictly increase across phases");
    }
    first = false;
    prev = ph.start;
    for (const ScenarioPhase::Override& o : ph.overrides) {
      if (o.class_name.empty()) continue;
      const bool exists =
          std::any_of(spec.classes.begin(), spec.classes.end(),
                      [&o](const ScenarioClass& c) {
                        return c.name == o.class_name;
                      });
      if (!exists) {
        return Status::InvalidArgument(Where(o.entry) + "unknown class '" +
                                       o.class_name + "'");
      }
    }
    for (ScenarioClass& c : effective) {
      if (Status s = ApplyPhaseToClass(ph, &c); !s.ok()) return s;
      if (Status s = ValidateClassWorkload(
              c, spec.engine, where + "class " + c.name + ": ");
          !s.ok()) {
        return s;
      }
    }
    if (spec.engine.backend == BackendKind::kPure) {
      if (Status s = ValidatePureProtocols(effective, spec.engine,
                                           " (" + where + "override)");
          !s.ok()) {
        return s;
      }
    }
  }
  return Status::OK();
}

// Lays the declared tables out contiguously in the item space (scaling
// row counts by scale_factor), sets the engine's item count to their
// total, and resolves every class table binding to an item range. With no
// [table] sections this only rejects dangling `table =` references.
Status ResolveTables(ScenarioSpec* spec, bool saw_items) {
  if (spec->tables.empty()) {
    for (const ScenarioClass& c : spec->classes) {
      if (!c.table.empty()) {
        return Status::InvalidArgument(
            "[class " + c.name + "]: table '" + c.table +
            "' referenced but no [table] sections are declared");
      }
    }
    return Status::OK();
  }
  if (saw_items) {
    return Status::InvalidArgument(
        "[engine] items conflicts with [table] sections (the item count is "
        "the sum of the table sizes)");
  }
  constexpr std::uint64_t kMaxItems = std::numeric_limits<ItemId>::max();
  std::uint64_t next = 0;
  for (ScenarioTable& t : spec->tables) {
    const std::string where =
        "[table " + t.name + "] (line " + std::to_string(t.line) + "): ";
    std::uint64_t rows = t.rows;
    if (t.scale) {
      if (rows > kMaxItems / spec->scale_factor) {
        return Status::InvalidArgument(
            where + "rows * scale_factor overflows the item space");
      }
      rows *= spec->scale_factor;
    }
    if (rows > kMaxItems - next) {
      return Status::InvalidArgument(where +
                                     "tables exceed the item space");
    }
    t.first = static_cast<ItemId>(next);
    t.effective_rows = static_cast<ItemId>(rows);
    next += rows;
  }
  spec->engine.num_items = static_cast<ItemId>(next);
  for (ScenarioClass& c : spec->classes) {
    if (c.table.empty()) continue;  // unbound: whole item space
    const auto it = std::find_if(
        spec->tables.begin(), spec->tables.end(),
        [&c](const ScenarioTable& t) { return t.name == c.table; });
    if (it == spec->tables.end()) {
      return Status::InvalidArgument("[class " + c.name +
                                     "]: unknown table '" + c.table + "'");
    }
    c.range_first = it->first;
    c.range_items = it->effective_rows;
  }
  return Status::OK();
}

// Checks constraints that span sections (class knobs against the engine's
// item count, pure backend against the policy, the phase timeline).
Status CrossValidate(const ScenarioSpec& spec) {
  for (const ScenarioClass& c : spec.classes) {
    if (Status s = ValidateClassWorkload(c, spec.engine,
                                         "[class " + c.name + "]: ");
        !s.ok()) {
      return s;
    }
  }
  if (Status s = ValidatePureBackend(spec); !s.ok()) return s;
  if (Status s = ValidateTimeline(spec); !s.ok()) return s;
  if (spec.engine.run.shed_policy == ShedPolicy::kDeadline) {
    const bool any_deadline =
        std::any_of(spec.classes.begin(), spec.classes.end(),
                    [](const ScenarioClass& c) { return c.deadline != 0; });
    if (!any_deadline) {
      return Status::InvalidArgument(
          "[run] shed_policy = deadline needs at least one class with "
          "deadline_ms");
    }
  }
  return spec.engine.Validate();
}

std::unique_ptr<ArrivalProcess> MakeArrivals(const ScenarioClass& c) {
  switch (c.arrival) {
    case ScenarioClass::ArrivalKind::kOnOff:
      return MakeOnOffArrivals(c.rate, c.off_rate,
                               static_cast<double>(c.on_mean),
                               static_cast<double>(c.off_mean));
    case ScenarioClass::ArrivalKind::kPoisson:
      break;
  }
  return MakePoissonArrivals(c.rate);
}

std::unique_ptr<AccessPattern> MakeAccess(const ScenarioClass& c,
                                          ItemId num_items) {
  switch (c.access) {
    case ScenarioClass::AccessKind::kZipf:
      return MakeZipfAccess(num_items, c.theta);
    case ScenarioClass::AccessKind::kHotspot:
      return MakeHotspotAccess(num_items, c.hot_items, c.hot_fraction);
    case ScenarioClass::AccessKind::kPartition:
      return MakePartitionedAccess(num_items, c.partitions,
                                   c.cross_fraction);
    case ScenarioClass::AccessKind::kUniform:
      break;
  }
  return MakeUniformAccess(num_items);
}

}  // namespace

Status ValidatePureBackend(const ScenarioSpec& spec) {
  if (spec.engine.backend != BackendKind::kPure) return Status::OK();
  if (spec.policy.kind != ScenarioPolicy::Kind::kFixed ||
      spec.policy.fixed != spec.engine.pure_protocol) {
    return Status::InvalidArgument(
        "[engine] backend = pure requires [policy] kind = fixed with the "
        "same protocol");
  }
  return ValidatePureProtocols(spec.classes, spec.engine, "");
}

StatusOr<ScenarioSpec> ScenarioSpec::FromIni(const IniFile& ini) {
  ScenarioSpec spec;
  constexpr char kClassPrefix[] = "class ";
  constexpr char kPhasePrefix[] = "phase ";
  constexpr char kTablePrefix[] = "table ";
  bool saw_items = false;
  for (const IniSection& sec : ini.sections()) {
    if (sec.name == "scenario") {
      if (Status s = ParseScenarioSection(sec, &spec); !s.ok()) return s;
    } else if (sec.name == "engine") {
      if (Status s = ParseEngineSection(sec, &spec.engine, &saw_items);
          !s.ok()) {
        return s;
      }
    } else if (sec.name == "policy") {
      if (Status s = ParsePolicySection(sec, &spec.policy, &spec.engine);
          !s.ok()) {
        return s;
      }
    } else if (sec.name == "topology") {
      if (Status s = ParseTopologySection(sec, &spec.engine.fault); !s.ok()) {
        return s;
      }
    } else if (sec.name == "fault") {
      if (Status s = ParseFaultSection(sec, &spec.engine.fault); !s.ok()) {
        return s;
      }
    } else if (sec.name == "run") {
      if (Status s = ParseRunSection(sec, &spec.engine); !s.ok()) return s;
    } else if (sec.name.rfind(kClassPrefix, 0) == 0) {
      std::string name = sec.name.substr(sizeof(kClassPrefix) - 1);
      for (const ScenarioClass& c : spec.classes) {
        if (c.name == name) {
          return Status::InvalidArgument("line " + std::to_string(sec.line) +
                                         ": duplicate class '" + name + "'");
        }
      }
      ScenarioClass c;
      if (Status s = ParseClassSection(sec, name, &c); !s.ok()) return s;
      spec.classes.push_back(std::move(c));
    } else if (sec.name.rfind(kPhasePrefix, 0) == 0) {
      std::string name = sec.name.substr(sizeof(kPhasePrefix) - 1);
      for (const ScenarioPhase& p : spec.phases) {
        if (p.name == name) {
          return Status::InvalidArgument("line " + std::to_string(sec.line) +
                                         ": duplicate phase '" + name + "'");
        }
      }
      ScenarioPhase ph;
      if (Status s = ParsePhaseSection(sec, name, &ph); !s.ok()) return s;
      spec.phases.push_back(std::move(ph));
    } else if (sec.name.rfind(kTablePrefix, 0) == 0) {
      std::string name = sec.name.substr(sizeof(kTablePrefix) - 1);
      for (const ScenarioTable& t : spec.tables) {
        if (t.name == name) {
          return Status::InvalidArgument("line " + std::to_string(sec.line) +
                                         ": duplicate table '" + name + "'");
        }
      }
      ScenarioTable t;
      if (Status s = ParseTableSection(sec, name, &t); !s.ok()) return s;
      spec.tables.push_back(std::move(t));
    } else {
      return Status::InvalidArgument(
          "line " + std::to_string(sec.line) + ": unknown section [" +
          sec.name +
          "] (expected scenario/engine/policy/topology/fault/run/"
          "table NAME/class NAME/phase NAME)");
    }
  }
  if (spec.classes.empty()) {
    return Status::InvalidArgument("scenario has no [class NAME] section");
  }
  if (Status s = ResolveTables(&spec, saw_items); !s.ok()) return s;
  // Phase-timeline crash events fire at their phase's start time.
  for (const ScenarioPhase& ph : spec.phases) {
    for (const ScenarioPhase::Crash& c : ph.crashes) {
      spec.engine.fault.crashes.push_back(CrashEvent{c.site, ph.start,
                                                     c.down});
    }
  }
  if (Status s = CrossValidate(spec); !s.ok()) return s;
  return spec;
}

StatusOr<ScenarioSpec> ScenarioSpec::Parse(const std::string& text) {
  auto ini = IniFile::Parse(text);
  if (!ini.ok()) return ini.status();
  return FromIni(*ini);
}

StatusOr<ScenarioSpec> ScenarioSpec::LoadFile(const std::string& path) {
  auto ini = IniFile::ReadFile(path);
  if (!ini.ok()) return ini.status();
  return FromIni(*ini);
}

std::uint64_t ScenarioSpec::TotalTxns() const {
  std::uint64_t total = 0;
  for (const ScenarioClass& c : classes) total += c.txns;
  return total;
}

namespace {

// Lazy generator for one class: draws one arrival per pull from the
// class's own deterministic Rng (seeded from engine.seed and the class
// index, so editing one class leaves the other classes' draws untouched).
// When the class clock crosses a phase start, the phase's overrides are
// folded into the working configuration and the arrival process / access
// pattern are rebuilt (the Rng continues, keeping the run deterministic);
// the first gap drawn after the crossing uses the new configuration, so
// one in-flight gap may straddle the boundary.
class ClassArrivalGen {
 public:
  ClassArrivalGen(const ScenarioSpec& spec, std::size_t class_index)
      : spec_(&spec),
        config_(spec.classes[class_index]),
        rng_(spec.engine.seed ^ (0x9e3779b97f4a7c15ull * (class_index + 1))),
        t_(static_cast<double>(config_.start)) {
    Rebuild();
  }

  // Draws the next arrival (id unassigned; the merge assigns it). Returns
  // false once the class's txns budget is spent. `*forced` reports
  // whether the configuration active at this arrival forces a protocol.
  bool Next(Arrival* out, bool* forced) {
    if (emitted_ == config_.txns) return false;
    while (next_phase_ < spec_->phases.size() &&
           t_ >= static_cast<double>(spec_->phases[next_phase_].start)) {
      // Validated when the spec was parsed; cannot fail here.
      UNICC_CHECK(
          ApplyPhaseToClass(spec_->phases[next_phase_], &config_).ok());
      Rebuild();
      ++next_phase_;
    }
    t_ += arrivals_->NextGapUs(rng_);
    ++emitted_;
    out->when = static_cast<SimTime>(t_);
    out->spec = TxnSpec();
    TxnSpec& spec = out->spec;
    spec.home =
        static_cast<SiteId>(rng_.UniformInt(spec_->engine.num_user_sites));
    spec.compute_time = config_.compute_time;
    spec.backoff_interval = config_.backoff_interval;
    spec.priority = config_.priority;
    spec.deadline = config_.deadline;
    if (config_.has_protocol) spec.protocol = config_.protocol;
    // Ranged scan: a read-only contiguous run instead of point accesses.
    // The scan_fraction > 0 guard keeps scan-free classes drawing exactly
    // the same Rng sequence as before scans existed.
    if (config_.scan_fraction > 0 &&
        rng_.Bernoulli(config_.scan_fraction)) {
      const ItemId range = Range();
      std::uint32_t len = static_cast<std::uint32_t>(
          rng_.UniformRange(1, config_.scan_max));
      if (len > range) len = range;  // scan_max <= range was validated
      const ItemId first =
          config_.range_first +
          static_cast<ItemId>(rng_.UniformInt(range - len + 1));
      for (std::uint32_t k = 0; k < len; ++k) {
        spec.read_set.push_back(first + k);
      }
      *forced = config_.has_protocol;
      return true;
    }
    const std::uint32_t size = static_cast<std::uint32_t>(
        rng_.UniformRange(config_.size_min, config_.size_max));
    std::vector<ItemId> items;
    items.reserve(size);
    while (items.size() < size) {  // retry duplicate draws
      const ItemId item =
          config_.range_first + access_->Next(rng_, spec.home);
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    for (ItemId item : items) {
      if (rng_.Bernoulli(config_.read_fraction)) {
        spec.read_set.push_back(item);
      } else {
        spec.write_set.push_back(item);
      }
    }
    *forced = config_.has_protocol;
    return true;
  }

 private:
  // The class's item range: its bound table, or the whole item space.
  ItemId Range() const {
    return config_.range_items != 0 ? config_.range_items
                                    : spec_->engine.num_items;
  }

  void Rebuild() {
    arrivals_ = MakeArrivals(config_);
    access_ = MakeAccess(config_, Range());
  }

  const ScenarioSpec* spec_;
  ScenarioClass config_;  // working copy; phases fold into it
  Rng rng_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<AccessPattern> access_;
  double t_;
  std::uint64_t emitted_ = 0;
  std::size_t next_phase_ = 0;
};

// Merges the per-class generators in time order (ties to the lower class
// index, matching the closed-batch sort order of old BuildWorkload
// builds) and assigns ids 1..N at pull time. Holds one buffered arrival
// per class — O(classes) memory however long the run.
class ScenarioStream final : public ArrivalStream {
 public:
  explicit ScenarioStream(const ScenarioSpec& spec)
      : spec_(std::make_unique<ScenarioSpec>(spec)),
        forced_(std::make_shared<std::unordered_set<TxnId>>()) {
    for (std::size_t i = 0; i < spec_->classes.size(); ++i) {
      gens_.emplace_back(*spec_, i);
    }
    slots_.resize(gens_.size());
  }

  std::shared_ptr<std::unordered_set<TxnId>> forced() const {
    return forced_;
  }

  bool Next(Arrival* out) override {
    std::size_t best = gens_.size();
    for (std::size_t i = 0; i < gens_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.filled && !s.done) {
        s.done = !gens_[i].Next(&s.arrival, &s.forced);
        s.filled = !s.done;
      }
      if (s.filled && (best == gens_.size() ||
                       s.arrival.when < slots_[best].arrival.when)) {
        best = i;
      }
    }
    if (best == gens_.size()) return false;
    Slot& s = slots_[best];
    *out = std::move(s.arrival);
    s.filled = false;
    out->spec.id = next_id_++;
    if (s.forced) forced_->insert(out->spec.id);
    return true;
  }

 private:
  struct Slot {
    Arrival arrival;
    bool forced = false;
    bool filled = false;
    bool done = false;
  };

  std::unique_ptr<ScenarioSpec> spec_;  // owned copy; gens_ point into it
  std::vector<ClassArrivalGen> gens_;
  std::vector<Slot> slots_;
  std::shared_ptr<std::unordered_set<TxnId>> forced_;
  TxnId next_id_ = 1;
};

}  // namespace

ScenarioSpec::OpenWorkload ScenarioSpec::Open() const {
  auto stream = std::make_unique<ScenarioStream>(*this);
  OpenWorkload out;
  out.forced = stream->forced();
  out.stream = std::move(stream);
  return out;
}

ScenarioSpec::Workload ScenarioSpec::BuildWorkload() const {
  OpenWorkload ow = Open();
  Workload out;
  const auto total = static_cast<std::size_t>(TotalTxns());
  out.arrivals = DrainStream(*ow.stream, total);
  UNICC_CHECK(out.arrivals.size() == total);
  out.forced = std::move(ow.forced);
  return out;
}

bool ScenarioSpec::IsOpenSystem() const {
  return engine.run.time_horizon != 0 || engine.run.commit_target != 0 ||
         engine.run.max_inflight != 0;
}

ProtocolPolicy ForcedAwarePolicy(
    ProtocolPolicy base,
    std::shared_ptr<const std::unordered_set<TxnId>> forced) {
  return [base = std::move(base),
          forced = std::move(forced)](const TxnSpec& spec) {
    if (forced != nullptr && forced->count(spec.id) != 0) {
      return spec.protocol;
    }
    return base ? base(spec) : spec.protocol;
  };
}

}  // namespace unicc
