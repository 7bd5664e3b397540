#include "src/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "src/util/logging.h"

namespace reactdb {
namespace obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, std::min(n, static_cast<int>(sizeof buf) - 1));
}

/// %g formatting that keeps integers integral (Prometheus-friendly).
void AppendNumber(std::string* out, double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 9.0e15) {
    AppendF(out, "%" PRId64, static_cast<int64_t>(v));
  } else {
    AppendF(out, "%.6g", v);
  }
}

/// HELP-line escaping per the exposition format: backslash and newline only
/// (quotes are legal in help text, unlike in label values).
void AppendHelpEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '\\' || c == '"') out->push_back('\\');
    if (c == '\n') {
      out->append("\\n");
      continue;
    }
    out->push_back(c);
  }
}

void AppendLabelSet(std::string* out, const Labels& labels) {
  if (labels.empty()) return;
  out->push_back('{');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(labels[i].first);
    out->append("=\"");
    AppendEscaped(out, labels[i].second);
    out->push_back('"');
  }
  out->push_back('}');
}

/// Labels plus one extra pair (histogram `le`).
void AppendLabelSetWith(std::string* out, const Labels& labels,
                        const char* key, const std::string& value) {
  out->push_back('{');
  for (const auto& kv : labels) {
    out->append(kv.first);
    out->append("=\"");
    AppendEscaped(out, kv.second);
    out->append("\",");
  }
  out->append(key);
  out->append("=\"");
  out->append(value);
  out->append("\"}");
}

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

MetricId MetricsRegistry::Register(std::string name, std::string help,
                                   MetricType type, Aggregation agg,
                                   Labels labels, uint32_t num_slots) {
  REACTDB_CHECK(!frozen());
  MetricId id{static_cast<uint32_t>(defs_.size())};
  defs_.push_back(Def{std::move(name), std::move(help), type, agg,
                      std::move(labels), next_slot_, num_slots});
  slot_of_.push_back(next_slot_);
  next_slot_ += num_slots;
  return id;
}

MetricId MetricsRegistry::Counter(std::string name, std::string help,
                                  Labels labels) {
  return Register(std::move(name), std::move(help), MetricType::kCounter,
                  Aggregation::kSum, std::move(labels), 1);
}

MetricId MetricsRegistry::Gauge(std::string name, std::string help,
                                Labels labels, Aggregation agg) {
  return Register(std::move(name), std::move(help), MetricType::kGauge, agg,
                  std::move(labels), 1);
}

MetricId MetricsRegistry::Histo(std::string name, std::string help,
                                Labels labels) {
  // Buckets plus one fixed-point sum slot; the count is the bucket total.
  return Register(std::move(name), std::move(help), MetricType::kHistogram,
                  Aggregation::kSum, std::move(labels),
                  static_cast<uint32_t>(Histogram::kNumBuckets) + 1);
}

MetricId MetricsRegistry::CounterFamily(std::string name, std::string help,
                                        std::vector<Labels> members) {
  REACTDB_CHECK(!members.empty());
  MetricId base;
  for (size_t i = 0; i < members.size(); ++i) {
    MetricId id = Counter(name, help, std::move(members[i]));
    if (i == 0) base = id;
  }
  return base;
}

void MetricsRegistry::Freeze(size_t num_executor_shards) {
  REACTDB_CHECK(!frozen());
  size_t shards = num_executor_shards + 1;  // + the shared shard
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    // Value-initialized: every slot starts at 0.
    shards_.push_back(
        std::make_unique<std::atomic<uint64_t>[]>(next_slot_));
  }
}

StatsSnapshot MetricsRegistry::Collect() const {
  StatsSnapshot snap;
  snap.samples.reserve(defs_.size() + 16);
  for (const Def& def : defs_) {
    MetricSample sample;
    sample.name = def.name;
    sample.help = def.help;
    sample.type = def.type;
    sample.labels = def.labels;
    switch (def.type) {
      case MetricType::kCounter: {
        uint64_t total = 0;
        for (const auto& shard : shards_) {
          total += shard[def.slot].load(std::memory_order_relaxed);
        }
        sample.value = static_cast<double>(total);
        break;
      }
      case MetricType::kGauge: {
        int64_t acc = 0;
        bool first = true;
        for (const auto& shard : shards_) {
          int64_t v = static_cast<int64_t>(
              shard[def.slot].load(std::memory_order_relaxed));
          if (def.agg == Aggregation::kMax) {
            acc = first ? v : std::max(acc, v);
            first = false;
          } else {
            acc += v;
          }
        }
        sample.value = static_cast<double>(acc);
        break;
      }
      case MetricType::kHistogram: {
        uint64_t sum_units = 0;
        for (const auto& shard : shards_) {
          for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
            sample.hist.AccumulateBucket(
                b, shard[def.slot + b].load(std::memory_order_relaxed));
          }
          sum_units += shard[def.slot + Histogram::kNumBuckets].load(
              std::memory_order_relaxed);
        }
        sample.hist.AddToSum(static_cast<double>(sum_units) /
                             Histogram::kUnitsPerUs);
        sample.value = static_cast<double>(sample.hist.count());
        break;
      }
    }
    snap.samples.push_back(std::move(sample));
  }
  for (const auto& collector : collectors_) collector(&snap.samples);
  return snap;
}

const MetricSample* StatsSnapshot::Find(std::string_view name,
                                        const Labels& labels) const& {
  for (const MetricSample& s : samples) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& want : labels) {
      bool found = false;
      for (const auto& have : s.labels) {
        if (have.first == want.first && have.second == want.second) {
          found = true;
          break;
        }
      }
      if (!found) {
        match = false;
        break;
      }
    }
    if (match) return &s;
  }
  return nullptr;
}

double StatsSnapshot::Value(std::string_view name, const Labels& labels) const {
  const MetricSample* s = Find(name, labels);
  return s == nullptr ? 0 : s->value;
}

std::string StatsSnapshot::ToPrometheus() const {
  std::string out;
  out.reserve(4096);
  std::string last_name;
  for (const MetricSample& s : samples) {
    if (s.name != last_name) {
      if (!s.help.empty()) {
        out.append("# HELP ");
        out.append(s.name);
        out.push_back(' ');
        AppendHelpEscaped(&out, s.help);
        out.push_back('\n');
      }
      out.append("# TYPE ");
      out.append(s.name);
      out.push_back(' ');
      out.append(TypeName(s.type));
      out.push_back('\n');
      last_name = s.name;
    }
    if (s.type == MetricType::kHistogram) {
      // Cumulative `le` series over the non-empty buckets plus +Inf, then
      // _sum and _count, per the exposition format. Bucket bounds are in
      // microseconds (the suffix on the metric name says so).
      uint64_t cum = 0;
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        uint64_t n = s.hist.bucket_count(b);
        if (n == 0) continue;
        cum += n;
        std::string le;
        AppendF(&le, "%.6g", Histogram::BucketUpperBound(b));
        out.append(s.name);
        out.append("_bucket");
        AppendLabelSetWith(&out, s.labels, "le", le);
        out.push_back(' ');
        AppendF(&out, "%" PRIu64, cum);
        out.push_back('\n');
      }
      out.append(s.name);
      out.append("_bucket");
      AppendLabelSetWith(&out, s.labels, "le", "+Inf");
      out.push_back(' ');
      AppendF(&out, "%" PRIu64, s.hist.count());
      out.push_back('\n');
      out.append(s.name);
      out.append("_sum");
      AppendLabelSet(&out, s.labels);
      out.push_back(' ');
      AppendNumber(&out, s.hist.sum());
      out.push_back('\n');
      out.append(s.name);
      out.append("_count");
      AppendLabelSet(&out, s.labels);
      out.push_back(' ');
      AppendF(&out, "%" PRIu64, s.hist.count());
      out.push_back('\n');
      continue;
    }
    out.append(s.name);
    AppendLabelSet(&out, s.labels);
    out.push_back(' ');
    AppendNumber(&out, s.value);
    out.push_back('\n');
  }
  return out;
}

std::string StatsSnapshot::ToJson() const {
  std::string out;
  out.reserve(4096);
  out.append("[\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    out.append("  {\"name\":\"");
    AppendEscaped(&out, s.name);
    out.append("\",\"type\":\"");
    out.append(TypeName(s.type));
    out.append("\",\"labels\":{");
    for (size_t j = 0; j < s.labels.size(); ++j) {
      if (j > 0) out.push_back(',');
      out.push_back('"');
      AppendEscaped(&out, s.labels[j].first);
      out.append("\":\"");
      AppendEscaped(&out, s.labels[j].second);
      out.push_back('"');
    }
    out.push_back('}');
    if (s.type == MetricType::kHistogram) {
      AppendF(&out, ",\"count\":%" PRIu64, s.hist.count());
      out.append(",\"sum\":");
      AppendNumber(&out, s.hist.sum());
      out.append(",\"mean\":");
      AppendNumber(&out, s.hist.Mean());
      out.append(",\"p50\":");
      AppendNumber(&out, s.hist.Median());
      out.append(",\"p99\":");
      AppendNumber(&out, s.hist.Quantile(0.99));
      out.append(",\"min\":");
      AppendNumber(&out, s.hist.min());
      out.append(",\"max\":");
      AppendNumber(&out, s.hist.max());
    } else {
      out.append(",\"value\":");
      AppendNumber(&out, s.value);
    }
    out.push_back('}');
    if (i + 1 < samples.size()) out.push_back(',');
    out.push_back('\n');
  }
  out.append("]\n");
  return out;
}

}  // namespace obs
}  // namespace reactdb
