#include "robust/soak.hpp"

#include <thread>

namespace robust {

using Clock = std::chrono::steady_clock;

namespace {

/// Append `part` to the "a, b, c" list `to`.
void append(std::string& to, std::string_view part, std::string_view sep) {
  if (!to.empty()) {
    to += sep;
  }
  to += part;
}

}  // namespace

void FirstFailure::operator()(std::uint64_t& counter,
                              const std::string& what) {
  bump(counter);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_.empty()) {
    first_ = what;
  }
}

bool goals_reached(const FieldList& fields) {
  for (const Field& f : fields.items) {
    if (f.role == Field::kGoal &&
        !(f.n != nullptr ? peek(*f.n) >= f.min : *f.flag)) {
      return false;
    }
  }
  return true;
}

void judge(const FieldList& fields, SoakResult& out,
           std::string_view ok_summary) {
  std::uint64_t wrong = 0, failures = 0;
  std::string broken, missing;
  for (const Field& f : fields.items) {
    if (f.role == Field::kWrong) {
      wrong += *f.n;
    } else if (f.role == Field::kFailure) {
      failures += *f.n;
    } else if (f.role == Field::kMust && !*f.flag) {
      append(broken, f.why, "; ");
    } else if (f.role == Field::kGoal &&
               !(f.n != nullptr ? *f.n >= f.min : *f.flag)) {
      append(missing, f.name, ", ");
    }
  }
  out.goals_met = false;
  if (wrong > 0) {
    out.verdict = "FAIL: " + std::to_string(wrong) +
                  " answers disagreed with the oracle";
  } else if (failures > 0) {
    out.verdict = "FAIL: " + std::to_string(failures) +
                  " unexpected failures (first: " + out.first_failure + ")";
  } else if (!broken.empty()) {
    out.verdict = "FAIL: " + broken;
  } else if (!missing.empty()) {
    out.verdict = "FAIL: goals not observed: " + missing;
  } else {
    out.goals_met = true;
    out.verdict = "OK: " + std::string(ok_summary);
  }
}

void run_until_goals(std::chrono::milliseconds duration,
                     const std::function<bool()>& goals) {
  const auto begun = Clock::now();
  const auto min_end = begun + duration;
  const auto hard_end = begun + duration * 6 + std::chrono::seconds(2);
  for (auto now = begun; now < hard_end && (now < min_end || !goals());
       now = Clock::now()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool wait_until(const std::function<bool()>& pred, Clock::time_point give_up,
                std::chrono::milliseconds poll) {
  while (Clock::now() < give_up) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(poll);
  }
  return pred();
}

void JsonFields::key(std::string_view k) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += '"';
  body_ += k;
  body_ += "\":";
}

void JsonFields::count(std::string_view k, std::uint64_t n) {
  key(k);
  body_ += std::to_string(n);
}

void JsonFields::real(std::string_view k, double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", x);
  raw(k, buf);
}

void JsonFields::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
}

void JsonFields::flag(std::string_view k, bool b) {
  key(k);
  body_ += b ? "true" : "false";
}

void JsonFields::text(std::string_view k, std::string_view s) {
  key(k);
  body_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
    }
    body_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  body_ += '"';
}

bool emit_json(const std::string& path, const std::string& doc) {
  if (path.empty()) {
    std::printf("%s\n", doc.c_str());
    std::fflush(stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fprintf(f, "%s\n", doc.c_str()) >= 0;
  ok = f != nullptr && std::fclose(f) == 0 && ok;
  std::fprintf(stderr, ok ? "wrote %s\n" : "error: cannot write %s\n",
               path.c_str());
  return ok;
}

int report(std::string_view name, std::string_view label,
           const FieldList& fields, const SoakResult& out,
           const ReportOptions& opts) {
  std::string line;
  JsonFields doc;
  doc.text("soak", label);
  if (opts.context) {
    opts.context(doc);
  }
  for (const Field& f : fields.items) {
    line += ' ';
    line += f.name;
    line += '=';
    if (f.n != nullptr) {
      line += std::to_string(*f.n);
      doc.count(f.name, *f.n);
    } else {
      line += *f.flag ? "yes" : "no";
      doc.flag(f.name, *f.flag);
    }
  }
  const int w = static_cast<int>(name.size());
  std::fprintf(opts.human, "%.*s: %s\n%.*s %s:%s\n", w, name.data(),
               out.verdict.c_str(), w, name.data(),
               out.goals_met ? "OK" : "FAILED", line.c_str());
  if (!opts.json) {
    return out.goals_met ? 0 : 1;
  }
  doc.flag("goals_met", out.goals_met);
  doc.text("first_failure", out.first_failure);
  doc.text("verdict", out.verdict);
  return emit_json(opts.json_path, doc.str()) && out.goals_met ? 0 : 1;
}

}  // namespace robust
