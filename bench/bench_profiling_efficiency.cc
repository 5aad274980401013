/**
 * @file
 * Table 2 reproduction: inference profiling iteration counts for
 * models (a) ResNet152, (b) RoBERTa-large, (c) GPT2-large,
 * (d) LLaMA2-7B, comparing Traversal, INFless (prediction), GPUlet and
 * Dilu's Hybrid Growth Search.
 */
#include <cstdio>

#include "profiler/baseline_profilers.h"
#include "profiler/inference_profiler.h"

int
main()
{
  using namespace dilu;
  const char* names[] = {"resnet152", "roberta-large", "gpt2-large",
                         "llama2-7b"};
  std::printf("Table 2: inference profiling iterations (approx 30 s per "
              "trial)\n");
  std::printf("%-12s %6s %6s %6s %6s  method\n", "Baseline", "a", "b",
              "c", "d");

  int trav[4], infl[4], gpl[4], dilu_n[4];
  for (int i = 0; i < 4; ++i) {
    const auto& m = models::GetModel(names[i]);
    trav[i] = profiler::ProfileTraversal(m).trials;
    infl[i] = profiler::ProfileInflessPredictive(m, 0.15, Rng(7)).trials;
    gpl[i] = profiler::ProfileGpulet(m).trials;
    dilu_n[i] = profiler::ProfileInference(m).trials;
  }
  std::printf("%-12s %6d %6d %6d %6d  pre-running\n", "Traversal",
              trav[0], trav[1], trav[2], trav[3]);
  std::printf("%-12s %6d %6d %6d %6d  prediction\n", "INFless", infl[0],
              infl[1], infl[2], infl[3]);
  std::printf("%-12s %6d %6d %6d %6d  pre-running\n", "GPUlet", gpl[0],
              gpl[1], gpl[2], gpl[3]);
  std::printf("%-12s %6d %6d %6d %6d  pre-running\n", "Dilu", dilu_n[0],
              dilu_n[1], dilu_n[2], dilu_n[3]);

  std::printf("\nchosen configurations (Dilu):\n");
  for (const char* n : names) {
    const auto p = profiler::ProfileInference(models::GetModel(n));
    std::printf("  %-14s star <IBS=%d, SMR=%.0f%%> TE=%.0f req/s per "
                "GPU\n", n, p.ibs, p.quota.request * 100, p.te);
  }
  return 0;
}
