// Adaptive protocol selection: self-tuning eager/rendezvous crossover.
//
// Two gates, written to BENCH_adaptive.json:
//
//  1. Steady state (simulator, paper testbed): on every adaptive_shapes
//     workload the online cost model's makespan must match the best static
//     threshold from the shared sweep grid — no shape may regress more
//     than 5%. The adaptive run starts from the 32 KiB default and pays
//     the warmup inside the measured window, so "within 5% of an oracle
//     that already knows the answer" is the honest steady-state claim.
//
//  2. Convergence (simulator): on a log-uniform 2-rank mix the learned
//     threshold must land within one size class (a factor of four — the
//     benchmark grids step by powers of four) of the paper testbed's
//     analytic crossover, handshake / copy = 37 600 bytes. This is the
//     same optimum bench_ablation_rendezvous reports per shape.
//
// --smoke runs both gates but skips the JSON write; CI wires it into
// tier-1.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/adaptive_shapes.hpp"
#include "bench/common.hpp"
#include "netsim/sim.hpp"

using namespace nncomm;

namespace {

// ---- Gate 2: convergence on a log-uniform mix -----------------------------

struct MixEntry {
    std::uint64_t bytes;
    int count;
};
constexpr MixEntry kMix[] = {
    {256, 64}, {1024, 64}, {4096, 32}, {16384, 32},
    {65536, 16}, {262144, 8}, {1048576, 4}, {4194304, 2},
};

sim::SimResult run_adaptive_mix() {
    sim::ClusterConfig cluster = sim::make_paper_testbed(2, /*skew_us_mean=*/0.0);
    cluster.adaptive_protocol = true;
    std::vector<sim::RankProgram> progs(2);
    int tag = 0;
    // Two passes over the mix: the first feeds the model across the full
    // size range, the second exercises the converged threshold.
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto& e : kMix) {
            for (int i = 0; i < e.count; ++i, ++tag) {
                progs[0].push_back(sim::Op::send(1, tag, e.bytes));
                progs[0].push_back(sim::Op::recv(1, tag));
                progs[1].push_back(sim::Op::recv(0, tag));
                progs[1].push_back(sim::Op::send(0, tag, e.bytes));
            }
        }
    }
    return sim::Simulator(cluster).run(progs);
}

}  // namespace

int main(int argc, char** argv) {
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bool pass = true;

    std::printf("== Adaptive protocol selection ==\n\n");

    // ---- Gate 1: adaptive vs best static per shape ------------------------
    std::printf("simulator, paper testbed: adaptive steady state vs best static\n"
                "threshold from the shared sweep grid\n\n");
    std::size_t nshapes = 0;
    const adaptive_shapes::Shape* shapes = adaptive_shapes::shapes(&nshapes);
    struct ShapeRow {
        const char* name;
        std::size_t best_thr;
        double best_us;
        double adaptive_us;
        bool ok;
    };
    std::vector<ShapeRow> rows;
    benchutil::Table tab(
        {"Shape", "Best static", "Static (us)", "Adaptive (us)", "Ratio", "Gate"});
    for (std::size_t i = 0; i < nshapes; ++i) {
        double best_us = 0.0;
        const std::size_t best_thr =
            adaptive_shapes::best_static_threshold(shapes[i], &best_us);
        const sim::SimResult ad = adaptive_shapes::run_adaptive(shapes[i]);
        const double ratio = best_us > 0.0 ? ad.makespan_us / best_us : 0.0;
        const bool ok = ratio <= 1.05;
        pass = pass && ok;
        rows.push_back({shapes[i].name, best_thr, best_us, ad.makespan_us, ok});
        tab.add_row({shapes[i].name, adaptive_shapes::threshold_name(best_thr),
                     benchutil::fmt(best_us, 1), benchutil::fmt(ad.makespan_us, 1),
                     benchutil::fmt(ratio, 3), ok ? "PASS" : "FAIL"});
    }
    tab.print();

    // ---- Gate 2: convergence ----------------------------------------------
    const sim::SimResult mix = run_adaptive_mix();
    const std::uint64_t target =
        adaptive_shapes::analytic_crossover(sim::make_paper_testbed(2, 0.0));
    const bool converged =
        adaptive_shapes::within_one_size_class(mix.threshold_bytes_last, target);
    pass = pass && converged;
    std::printf("\nconvergence: learned threshold %llu (lo %llu, hi %llu) vs analytic\n"
                "crossover %llu after %llu observations — within one size class: %s\n",
                static_cast<unsigned long long>(mix.threshold_bytes_last),
                static_cast<unsigned long long>(mix.threshold_bytes_lo),
                static_cast<unsigned long long>(mix.threshold_bytes_hi),
                static_cast<unsigned long long>(target),
                static_cast<unsigned long long>(mix.adaptive_updates),
                converged ? "PASS" : "FAIL");

    std::printf("\nadaptive gates: %s\n", pass ? "PASS" : "FAIL");

    if (!smoke) {
        FILE* f = std::fopen("BENCH_adaptive.json", "w");
        if (f) {
            std::fprintf(f, "{\n  \"bench\": \"adaptive\",\n  \"shapes\": [\n");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                std::fprintf(f,
                             "    { \"shape\": \"%s\", \"best_static_threshold\": %llu, "
                             "\"static_us\": %.1f, \"adaptive_us\": %.1f, \"pass\": %s }%s\n",
                             rows[i].name,
                             static_cast<unsigned long long>(
                                 rows[i].best_thr == adaptive_shapes::kNever ? 0
                                                                             : rows[i].best_thr),
                             rows[i].best_us, rows[i].adaptive_us, rows[i].ok ? "true" : "false",
                             i + 1 < rows.size() ? "," : "");
            }
            std::fprintf(f, "  ],\n  \"convergence\": { \"learned\": %llu, \"target\": %llu, "
                            "\"updates\": %llu, \"pass\": %s },\n",
                         static_cast<unsigned long long>(mix.threshold_bytes_last),
                         static_cast<unsigned long long>(target),
                         static_cast<unsigned long long>(mix.adaptive_updates),
                         converged ? "true" : "false");
            std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
            std::fclose(f);
            std::printf("wrote BENCH_adaptive.json\n");
        }
    }
    return pass ? 0 : 1;
}
