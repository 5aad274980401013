/**
 * @file
 * Fig 4 reproduction: throughput efficacy (TE) surfaces over
 * <IBS, SMR> for ResNet152, RoBERTa-large, GPT2-large and LLaMA2-7B,
 * with the Hybrid Growth Search path and the chosen star.
 *
 * Legend (matching the figure): '*' star, '+' SLO-feasible point,
 * 'x' SLO violation, '@' point on the HGS forward path.
 */
#include <cstdio>
#include <cstring>

#include "models/cost_model.h"
#include "profiler/inference_profiler.h"

int
main()
{
  using namespace dilu;
  for (const char* name : {"resnet152", "roberta-large", "gpt2-large",
                           "llama2-7b"}) {
    const auto& m = models::GetModel(name);
    const auto p = profiler::ProfileInference(m);
    std::printf("=== Fig 4: %s (SLO %.0f ms, exec budget %.0f ms) ===\n",
                name, m.slo_ms, m.slo_ms / 2);
    std::printf("%6s", "IBS\\SMR");
    for (int s = 1; s <= 10; ++s) std::printf("   %3d%%  ", s * 10);
    std::printf("\n");
    for (int b = 1; b <= m.max_batch; b *= 2) {
      std::printf("%6d", b);
      for (int s = 1; s <= 10; ++s) {
        const double smr = s * 0.1;
        const double te = models::ThroughputEfficacy(m, b, smr);
        const bool ok = models::MeetsSlo(m, b, smr);
        char mark = ok ? '+' : 'x';
        for (const auto& t : p.path) {
          if (t.ibs == b && std::abs(t.smr - smr) < 0.01) mark = '@';
        }
        if (p.ibs == b && std::abs(p.quota.request - smr) < 0.01) {
          mark = '*';
        }
        std::printf(" %6.0f %c", te, mark);
      }
      std::printf("\n");
    }
    std::printf("star <IBS=%d, SMR=%.0f%%> TE=%.0f (request quota; "
                "limit = %.0f%%), %d trials\n\n", p.ibs,
                p.quota.request * 100, p.te, p.quota.limit * 100,
                p.trials);
  }
  return 0;
}
