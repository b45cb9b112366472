#include "common/obs/metrics.h"

#include <iterator>

namespace vpim::obs {

namespace {

// Prometheus text exposition: label values escape backslash, double
// quote, and newline (and \r, which would otherwise split the line).
void append_prom_escaped(std::string& out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
}

// JSON string escaping per RFC 8259: quote, backslash, and all control
// characters below 0x20.
void append_json_escaped(std::string& out, std::string_view v) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : v) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        } else {
          out += c;
        }
        break;
    }
  }
}

void append_labels(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_prom_escaped(out, v);
    out += '"';
  }
  out += '}';
}

void append_labels_json(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, k);
    out += "\":\"";
    append_json_escaped(out, v);
    out += '"';
  }
  out += '}';
}

const Labels kOverflowLabels = {{"overflow", "true"}};

}  // namespace

void Collection::counter(std::string_view name, const Labels& labels,
                         std::uint64_t value) {
  add(name, true, labels, static_cast<std::int64_t>(value));
}

void Collection::gauge(std::string_view name, const Labels& labels,
                       std::int64_t value) {
  add(name, false, labels, value);
}

void Collection::add(std::string_view name, bool is_counter,
                     const Labels& labels, std::int64_t value) {
  for (Family& f : families_) {
    if (f.name == name) {
      f.samples.push_back({labels, value});
      return;
    }
  }
  families_.push_back({std::string(name), is_counter, {{labels, value}}});
}

MetricsRegistry::Family& MetricsRegistry::family(std::string_view name) {
  for (Family& f : families_) {
    if (f.name == name) return f;
  }
  families_.push_back({std::string(name), {}});
  return families_.back();
}

std::list<MetricsRegistry::Series>::iterator MetricsRegistry::series(
    Family& fam, const Labels& labels) {
  for (auto it = fam.series.begin(); it != fam.series.end(); ++it) {
    if (it->labels == labels) return it;
  }
  if (fam.series.size() >= kMaxSeriesPerFamily) {
    // Cardinality limit: everything beyond the cap shares one overflow
    // series (created on first overflow, so it counts toward the cap + 1).
    for (auto it = fam.series.begin(); it != fam.series.end(); ++it) {
      if (it->labels == kOverflowLabels) return it;
    }
    fam.series.push_back({kOverflowLabels, {}});
    return std::prev(fam.series.end());
  }
  fam.series.push_back({labels, {}});
  return std::prev(fam.series.end());
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels) {
  Series& s = *series(family(name), labels);
  s.permanent = true;
  return s.histogram;
}

MetricsRegistry::HistogramHandle MetricsRegistry::scoped_histogram(
    std::string_view name, const Labels& labels) {
  Family& fam = family(name);
  const auto it = series(fam, labels);
  ++it->handles;
  return HistogramHandle(&fam, it);
}

void MetricsRegistry::HistogramHandle::release() {
  if (fam_ == nullptr) return;
  if (--it_->handles == 0 && !it_->permanent) fam_->series.erase(it_);
  fam_ = nullptr;
}

MetricsRegistry::CollectorHandle MetricsRegistry::add_collector(
    Collector fn) {
  const std::uint64_t id = next_collector_id_++;
  collectors_.push_back({id, std::move(fn)});
  return CollectorHandle(this, id);
}

void MetricsRegistry::remove_collector(std::uint64_t id) {
  for (std::size_t i = 0; i < collectors_.size(); ++i) {
    if (collectors_[i].id == id) {
      collectors_.erase(collectors_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void MetricsRegistry::CollectorHandle::release() {
  if (reg_ != nullptr) {
    reg_->remove_collector(id_);
    reg_ = nullptr;
  }
}

Collection MetricsRegistry::collect() const {
  Collection col;
  for (const CollectorEntry& c : collectors_) c.fn(col);
  return col;
}

std::size_t MetricsRegistry::family_count() const {
  std::size_t n = collect().families_.size();
  for (const Family& f : families_) n += !f.series.empty();
  return n;
}

std::string MetricsRegistry::prometheus_text() const {
  std::string out;
  for (const Family& f : families_) {
    if (f.series.empty()) continue;  // every series left with its handles
    out += "# TYPE ";
    out += f.name;
    out += " histogram\n";
    for (const Series& s : f.series) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i <= Histogram::kBuckets; ++i) {
        cumulative += s.histogram.bucket_count(i);
        Labels bl = s.labels;
        bl.emplace_back("le", i == Histogram::kBuckets
                                  ? std::string("+Inf")
                                  : std::to_string(Histogram::upper_bound(i)));
        out += f.name;
        out += "_bucket";
        append_labels(out, bl);
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
      }
      out += f.name;
      out += "_sum";
      append_labels(out, s.labels);
      out += ' ';
      out += std::to_string(s.histogram.sum());
      out += '\n';
      out += f.name;
      out += "_count";
      append_labels(out, s.labels);
      out += ' ';
      out += std::to_string(s.histogram.count());
      out += '\n';
    }
  }
  for (const Collection::Family& f : collect().families_) {
    out += "# TYPE ";
    out += f.name;
    out += f.is_counter ? " counter\n" : " gauge\n";
    for (const Collection::Sample& s : f.samples) {
      out += f.name;
      append_labels(out, s.labels);
      out += ' ';
      out += std::to_string(s.value);
      out += '\n';
    }
  }
  return out;
}

std::string MetricsRegistry::json_snapshot() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  auto emit_head = [&](std::string_view name, std::string_view type,
                       const Labels& labels) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += name;
    out += "\",\"type\":\"";
    out += type;
    out += "\",\"labels\":";
    append_labels_json(out, labels);
  };
  for (const Family& f : families_) {
    for (const Series& s : f.series) {
      emit_head(f.name, "histogram", s.labels);
      out += ",\"count\":";
      out += std::to_string(s.histogram.count());
      out += ",\"sum\":";
      out += std::to_string(s.histogram.sum());
      out += ",\"buckets\":[";
      for (std::size_t i = 0; i <= Histogram::kBuckets; ++i) {
        if (i != 0) out += ',';
        out += std::to_string(s.histogram.bucket_count(i));
      }
      out += "]}";
    }
  }
  for (const Collection::Family& f : collect().families_) {
    for (const Collection::Sample& s : f.samples) {
      emit_head(f.name, f.is_counter ? "counter" : "gauge", s.labels);
      out += ",\"value\":";
      out += std::to_string(s.value);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

}  // namespace vpim::obs
