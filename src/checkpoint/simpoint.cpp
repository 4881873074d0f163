#include "checkpoint/simpoint.h"

#include <algorithm>
#include <cmath>

namespace minjie::checkpoint {

namespace {

/** Deterministic +-1 projection coefficient for (pc, dim). */
double
projCoeff(Addr pc, unsigned dim, uint64_t seed)
{
    uint64_t h = pc * 0x9e3779b97f4a7c15ULL + dim * 0xbf58476d1ce4e5b9ULL +
                 seed;
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 29;
    return (h & 1) ? 1.0 : -1.0;
}

double
dist2(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        double t = a[i] - b[i];
        d += t * t;
    }
    return d;
}

} // namespace

SimPoints
simpoint(const std::vector<Bbv> &bbvs, unsigned maxK, unsigned dims,
         uint64_t seed)
{
    SimPoints sp;
    if (bbvs.empty())
        return sp;

    unsigned k = std::min<unsigned>(maxK,
                                    static_cast<unsigned>(bbvs.size()));

    // Normalize each BBV to unit L1 mass and randomly project.
    std::vector<std::vector<double>> pts(bbvs.size(),
                                         std::vector<double>(dims, 0.0));
    for (size_t i = 0; i < bbvs.size(); ++i) {
        double total = 0;
        for (const auto &[pc, count] : bbvs[i])
            total += static_cast<double>(count);
        if (total == 0)
            total = 1;
        for (const auto &[pc, count] : bbvs[i]) {
            double w = static_cast<double>(count) / total;
            for (unsigned d = 0; d < dims; ++d)
                pts[i][d] += w * projCoeff(pc, d, seed);
        }
    }

    // k-means++-style seeding (deterministic): first centroid is the
    // first interval; each next is the point farthest from its nearest
    // chosen centroid.
    std::vector<std::vector<double>> centroids;
    centroids.push_back(pts[0]);
    while (centroids.size() < k) {
        size_t best = 0;
        double bestDist = -1;
        for (size_t i = 0; i < pts.size(); ++i) {
            double nearest = 1e300;
            for (const auto &c : centroids)
                nearest = std::min(nearest, dist2(pts[i], c));
            if (nearest > bestDist) {
                bestDist = nearest;
                best = i;
            }
        }
        centroids.push_back(pts[best]);
    }

    // Lloyd iterations.
    std::vector<unsigned> assign(pts.size(), 0);
    for (unsigned iter = 0; iter < 30; ++iter) {
        bool changed = false;
        for (size_t i = 0; i < pts.size(); ++i) {
            unsigned best = 0;
            double bestDist = 1e300;
            for (unsigned c = 0; c < centroids.size(); ++c) {
                double d = dist2(pts[i], centroids[c]);
                if (d < bestDist) {
                    bestDist = d;
                    best = c;
                }
            }
            if (assign[i] != best) {
                assign[i] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;
        for (unsigned c = 0; c < centroids.size(); ++c) {
            std::vector<double> mean(dims, 0.0);
            unsigned n = 0;
            for (size_t i = 0; i < pts.size(); ++i) {
                if (assign[i] == c) {
                    for (unsigned d = 0; d < dims; ++d)
                        mean[d] += pts[i][d];
                    ++n;
                }
            }
            if (n) {
                for (auto &m : mean)
                    m /= n;
                centroids[c] = std::move(mean);
            }
        }
    }

    // Representative = interval closest to its centroid.
    sp.assignment = assign;
    for (unsigned c = 0; c < centroids.size(); ++c) {
        long best = -1;
        double bestDist = 1e300;
        unsigned size = 0;
        for (size_t i = 0; i < pts.size(); ++i) {
            if (assign[i] != c)
                continue;
            ++size;
            double d = dist2(pts[i], centroids[c]);
            if (d < bestDist) {
                bestDist = d;
                best = static_cast<long>(i);
            }
        }
        if (best >= 0) {
            sp.intervals.push_back(static_cast<unsigned>(best));
            sp.sizes.push_back(size);
        }
    }
    return sp;
}

} // namespace minjie::checkpoint
