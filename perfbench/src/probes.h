/**
 * @file
 * Kernel probes: single-thread timings of the library's kernel entry
 * points at one workload's shapes (ring degree, limb count, key-switch
 * variant). The traced run multiplies them by the call counts the
 * executor's ExecutionProfile exports, which gives a computed (not
 * measured) kernel share of a job.
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.h"
#include "fhe/basis_extend.h"
#include "fhe/keyswitch.h"
#include "poly/automorphism.h"
#include "poly/ntt.h"
#include "spans.h"

namespace perfbench {

/** A key-switch shape the program uses: a level, one of the
 *  program's hints at that level, and how many of the program's key
 *  switches run there. */
struct KeySwitchShape
{
    size_t level = 0;
    const f1::KeySwitchHint *hint = nullptr;
    double weight = 0;
};

struct KernelTimes
{
    double nttFwdUs = 0;
    double nttInvUs = 0;
    double automorphismUs = 0;
    double keySwitchMs = 0;   //!< mean over the program's key switches
    double basisExtendMs = 0; //!< likewise; 0 without aux primes
    double poolDispatchUs = 0;
    double limbSpeedup = 0;   //!< limb-batched NTT, all threads vs 1
};

/** Median wall time (ns) of `reps` calls of `fn`, after one warm-up. */
inline double
medianNs(int reps, const std::function<void()> &fn)
{
    fn();
    std::vector<int64_t> t(reps);
    for (int i = 0; i < reps; ++i) {
        const int64_t a = nowNs();
        fn();
        t[i] = nowNs() - a;
    }
    std::sort(t.begin(), t.end());
    return static_cast<double>(t[reps / 2]);
}

/**
 * Probes every kernel at `ctx`'s shapes. Key switching and basis
 * extension are timed at each of `shapes`' levels and averaged with
 * the shapes' weights, since their cost grows with the level;
 * `errorScale` is t for BGV and 1 for CKKS. Kernel timings run inline
 * on the calling thread; the pool-dispatch and limb-speedup probes use
 * the global pool, which is resized to 1 thread and back for the
 * latter.
 */
inline KernelTimes
probeKernels(const f1::FheContext &ctx,
             const std::vector<KeySwitchShape> &shapes, uint64_t errorScale,
             uint64_t galois, f1::Rng &rng)
{
    using namespace f1;
    const PolyContext *pc = ctx.polyContext();
    const uint32_t n = ctx.n();
    KernelTimes k;
    {
        InlineParallelScope inlineKernels;
        const NttTables &tab = pc->tables(0);
        std::vector<uint32_t> a(n), b(n);
        for (auto &v : a)
            v = static_cast<uint32_t>(rng.uniform(tab.q()));
        b = a;
        k.nttFwdUs = medianNs(64, [&] { tab.forward(a); }) / 1e3;
        k.nttInvUs = medianNs(64, [&] { tab.inverse(a); }) / 1e3;
        k.automorphismUs =
            medianNs(64, [&] { automorphismNtt(a, b, galois); }) / 1e3;
        KeySwitcher ks(&ctx);
        double weights = 0;
        for (const KeySwitchShape &sh : shapes) {
            const size_t level = sh.level;
            RnsPoly x = RnsPoly::uniform(pc, level, rng);
            k.keySwitchMs += sh.weight * medianNs(3, [&] {
                                 auto r = ks.apply(x, *sh.hint, errorScale);
                                 (void)r;
                             }) / 1e6;
            weights += sh.weight;
            if (ctx.auxCount() == 0)
                continue;
            std::vector<size_t> src(level), dst(ctx.auxCount());
            for (size_t i = 0; i < level; ++i)
                src[i] = i;
            for (size_t j = 0; j < dst.size(); ++j)
                dst[j] = ctx.maxLevel() + j;
            BasisExtender ext(pc, src, dst);
            std::vector<uint32_t> in(level * size_t(n)),
                res(dst.size() * size_t(n));
            for (size_t i = 0; i < level; ++i)
                for (uint32_t j = 0; j < n; ++j)
                    in[i * n + j] =
                        static_cast<uint32_t>(rng.uniform(pc->modulus(i)));
            k.basisExtendMs +=
                sh.weight * medianNs(3, [&] { ext.extend(in, n, res); }) /
                1e6;
        }
        if (weights > 0) {
            k.keySwitchMs /= weights;
            k.basisExtendMs /= weights;
        }
    }
    {
        const unsigned threads = globalThreadCount();
        k.poolDispatchUs =
            medianNs(1000, [&] { parallelFor(0, threads, [](size_t) {}); }) /
            1e3;
        const size_t limbs = pc->chainLength();
        std::vector<uint32_t> data(limbs * size_t(n));
        for (size_t i = 0; i < limbs; ++i)
            for (uint32_t j = 0; j < n; ++j)
                data[i * n + j] =
                    static_cast<uint32_t>(rng.uniform(pc->modulus(i)));
        auto batch = [&] {
            parallelForLimbs(limbs, [&](size_t i) {
                std::span<uint32_t> row(data.data() + i * n, n);
                pc->tables(i).forward(row);
                pc->tables(i).inverse(row);
            });
        };
        const double many = medianNs(7, batch);
        setGlobalThreadCount(1);
        const double one = medianNs(7, batch);
        setGlobalThreadCount(threads);
        k.limbSpeedup = one / many;
    }
    return k;
}

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
