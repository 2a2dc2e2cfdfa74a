/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * opened and closed around calls into the library's public API from
 * the benchmark's own thread, so nesting follows the call stack: a
 * span's parent is the span open when it started. Nothing is written
 * until the run ends.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;   //!< index into Spans::all(), -1 for a root
    uint64_t job = 0;  //!< job id shared by one job's spans, 0 = none
    int64_t selfNs = 0; //!< filled by Spans::computeSelf()
};

/** Records spans while enabled; a disabled recorder does nothing. */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII span: open on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Spans &s, std::string name, uint64_t job = 0)
            : s_(s), idx_(s.open(std::move(name), job))
        {
        }
        ~Scope() { s_.close(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &s_;
        int idx_;
    };

    const std::vector<Span> &all() const { return spans_; }

    /**
     * Self time of every span: its duration minus the part of it that
     * the union of its children's intervals covers.
     */
    void
    computeSelf()
    {
        std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent >= 0)
                kids[s.parent].push_back({s.startNs, s.endNs});
        for (size_t i = 0; i < spans_.size(); ++i) {
            Span &p = spans_[i];
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            int64_t covered = 0, curS = 0, curE = INT64_MIN;
            for (auto [s, e] : iv) {
                s = std::max(s, p.startNs);
                e = std::min(e, p.endNs);
                if (e <= s)
                    continue;
                if (s > curE) {
                    if (curE > curS)
                        covered += curE - curS;
                    curS = s;
                    curE = e;
                } else {
                    curE = std::max(curE, e);
                }
            }
            if (curE > curS)
                covered += curE - curS;
            p.selfNs = (p.endNs - p.startNs) - covered;
        }
    }

    /** Sum of self time (ms) of spans named `name` under job `job`. */
    double
    selfMs(const std::string &name, uint64_t job) const
    {
        int64_t ns = 0;
        for (const Span &s : spans_)
            if (s.job == job && s.name == name)
                ns += s.selfNs;
        return ns / 1e6;
    }

    size_t
    count(const std::string &name, uint64_t job) const
    {
        size_t c = 0;
        for (const Span &s : spans_)
            c += s.job == job && s.name == name;
        return c;
    }

    /** Writes every span as JSON (times in ns from the first span). */
    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        std::fprintf(f, "{\"spans\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %lld, \"end_ns\": %lld, "
                         "\"parent\": %d, \"job\": %llu, "
                         "\"self_ns\": %lld}%s\n",
                         i, s.name.c_str(),
                         (long long)(s.startNs - t0),
                         (long long)(s.endNs - t0), s.parent,
                         (unsigned long long)s.job,
                         (long long)s.selfNs,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    int
    open(std::string name, uint64_t job)
    {
        if (!enabled_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        if (job == 0 && parent >= 0)
            job = spans_[parent].job;
        spans_.push_back({std::move(name), nowNs(), 0, parent, job, 0});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans_[idx].endNs = nowNs();
        stack_.pop_back();
    }

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
