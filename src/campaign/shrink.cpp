#include "campaign/shrink.h"

#include <algorithm>

namespace minjie::campaign {

using workload::ShrinkableProgram;

ShrinkResult
shrinkProgram(const ShrinkableProgram &orig, const std::string &wantSig,
              const SignatureFn &sig, unsigned maxEvals)
{
    ShrinkResult res;

    std::vector<size_t> kept(orig.chunks.size());
    for (size_t i = 0; i < kept.size(); ++i)
        kept[i] = i;

    auto tryKeep = [&](const std::vector<size_t> &cand) {
        ++res.evals;
        return sig(orig.withChunks(cand).assemble()) == wantSig;
    };

    // Classic ddmin: partition the kept set into n subsets and try
    // removing each subset (keeping its complement); on success restart
    // at coarse granularity, otherwise refine until subsets are single
    // chunks and none can be removed.
    size_t n = 2;
    while (kept.size() >= 1 && res.evals < maxEvals) {
        n = std::min(n, std::max<size_t>(kept.size(), 1));
        bool removed = false;
        size_t chunkLen = (kept.size() + n - 1) / std::max<size_t>(n, 1);
        if (chunkLen == 0)
            break;
        for (size_t start = 0;
             start < kept.size() && res.evals < maxEvals;
             start += chunkLen) {
            size_t stop = std::min(start + chunkLen, kept.size());
            std::vector<size_t> cand;
            cand.reserve(kept.size() - (stop - start));
            cand.insert(cand.end(), kept.begin(),
                        kept.begin() + static_cast<long>(start));
            cand.insert(cand.end(),
                        kept.begin() + static_cast<long>(stop),
                        kept.end());
            if (tryKeep(cand)) {
                kept = std::move(cand);
                n = std::max<size_t>(2, n - 1);
                removed = true;
                break;
            }
        }
        if (!removed) {
            if (n >= kept.size()) {
                res.converged = true;
                break;
            }
            n = std::min(kept.size(), n * 2);
        }
    }

    res.program = orig.withChunks(kept);
    return res;
}

} // namespace minjie::campaign
