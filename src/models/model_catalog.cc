#include "models/model_catalog.h"

#include "common/logging.h"

namespace dilu::models {
namespace {

/**
 * Calibration notes.
 *
 * - infer_t0_ms values sit near published A100 single-batch latencies and
 *   reproduce the paper's anchor points: RoBERTa-large IBS=4 at 50% SMR
 *   executes in ~SLO/2 = 50 ms and gains only ~2% more throughput at
 *   100% SMR (Section 3.2 / Fig 4b).
 * - Training comm fractions reproduce Observation-2: >40% GPU idling for
 *   4-worker GPT2-large DDP, ~20% pipeline bubbles for LLaMA2-7B.
 * - param_gb spans the paper's 0.2 GB - 12.6 GB range.
 */
std::vector<ModelProfile> BuildCatalog()
{
  std::vector<ModelProfile> catalog;

  {
    ModelProfile m;
    m.name = "resnet152";
    m.family = ModelFamily::kVision;
    m.param_gb = 0.24;
    m.mem_gb_inference = 2.5;
    m.mem_gb_training = 9.0;
    m.slo_ms = 100.0;
    m.infer_t0_ms = 14.0;
    m.batch_exp = 0.5;
    m.sat_base = 0.12;
    m.sat_exp = 0.35;
    m.post_sat_slope = 0.05;
    m.max_batch = 32;
    m.train_iter_ms = 260.0;
    m.train_sat = 0.9;
    m.train_comm_ms = 75.0;
    m.train_batch = 64;
    m.samples_per_unit = 1.0;
    m.throughput_unit = "images/s";
    catalog.push_back(m);
  }
  {
    ModelProfile m;
    m.name = "vgg19";
    m.family = ModelFamily::kVision;
    m.param_gb = 0.55;
    m.mem_gb_inference = 2.8;
    m.mem_gb_training = 10.0;
    m.slo_ms = 80.0;
    m.infer_t0_ms = 9.0;
    m.batch_exp = 0.55;
    m.sat_base = 0.14;
    m.sat_exp = 0.35;
    m.post_sat_slope = 0.05;
    m.max_batch = 32;
    m.train_iter_ms = 300.0;
    m.train_sat = 0.92;
    m.train_comm_ms = 110.0;
    m.train_batch = 64;
    m.samples_per_unit = 1.0;
    m.throughput_unit = "images/s";
    catalog.push_back(m);
  }
  {
    ModelProfile m;
    m.name = "bert-base";
    m.family = ModelFamily::kNlp;
    m.param_gb = 0.22;
    m.mem_gb_inference = 1.8;
    m.mem_gb_training = 8.0;
    m.slo_ms = 50.0;
    m.infer_t0_ms = 5.0;
    m.batch_exp = 0.55;
    m.sat_base = 0.15;
    m.sat_exp = 0.35;
    m.post_sat_slope = 0.04;
    m.max_batch = 32;
    m.train_iter_ms = 170.0;
    m.train_sat = 0.85;
    m.train_comm_ms = 55.0;
    m.train_batch = 32;
    m.samples_per_unit = 128.0;  // tokens per sequence
    m.throughput_unit = "tokens/s";
    catalog.push_back(m);
  }
  {
    ModelProfile m;
    m.name = "roberta-large";
    m.family = ModelFamily::kNlp;
    m.param_gb = 1.42;
    m.mem_gb_inference = 3.5;
    m.mem_gb_training = 14.0;
    m.slo_ms = 100.0;
    // IBS=4: work = 23.3 * 4^0.55 ~ 50 ms at speed 1; s_sat(4) = 0.5,
    // so 50% -> 100% SMR yields only the ~2-4% post-saturation residual.
    m.infer_t0_ms = 23.3;
    m.batch_exp = 0.55;
    m.sat_base = 0.308;
    m.sat_exp = 0.35;
    m.post_sat_slope = 0.04;
    m.max_batch = 16;
    m.train_iter_ms = 310.0;
    m.train_sat = 0.88;
    m.train_comm_ms = 120.0;
    m.train_batch = 32;
    m.samples_per_unit = 128.0;
    m.throughput_unit = "tokens/s";
    catalog.push_back(m);
  }
  {
    ModelProfile m;
    m.name = "gpt2-large";
    m.family = ModelFamily::kNlp;
    m.param_gb = 3.1;
    m.mem_gb_inference = 6.0;
    m.mem_gb_training = 22.0;
    m.slo_ms = 150.0;
    // t0 * 4^0.6 ~ 73.6 ms: IBS=4 fits the SLO/2 budget, giving the
    // ~54 rps per-instance capacity the Fig 10 RPS=48 point relies on.
    m.infer_t0_ms = 32.0;
    m.batch_exp = 0.6;
    m.sat_base = 0.32;
    m.sat_exp = 0.3;
    m.post_sat_slope = 0.04;
    m.max_batch = 16;
    // 4-worker DDP shows >40% idling (Observation-2):
    m.train_iter_ms = 330.0;
    m.train_sat = 0.9;
    m.train_comm_ms = 240.0;
    m.train_batch = 16;
    m.samples_per_unit = 256.0;
    m.throughput_unit = "tokens/s";
    catalog.push_back(m);
  }
  {
    ModelProfile m;
    m.name = "llama2-7b";
    m.family = ModelFamily::kLlm;
    m.param_gb = 12.6;
    m.mem_gb_inference = 16.0;
    m.mem_gb_training = 34.0;
    // SLO on average time-per-output-token for LLM serving.
    m.slo_ms = 120.0;
    m.infer_t0_ms = 42.0;
    m.batch_exp = 0.65;
    m.sat_base = 0.38;
    m.sat_exp = 0.3;
    m.post_sat_slope = 0.05;
    m.max_batch = 8;
    // Pipeline-parallel fine-tuning: ~20% bubble idling per worker.
    m.train_iter_ms = 900.0;
    m.train_sat = 0.92;
    m.train_comm_ms = 225.0;
    m.train_batch = 8;
    m.samples_per_unit = 512.0;
    m.throughput_unit = "tokens/s";
    catalog.push_back(m);
  }
  {
    ModelProfile m;
    m.name = "chatglm3-6b";
    m.family = ModelFamily::kLlm;
    m.param_gb = 11.5;
    m.mem_gb_inference = 15.0;
    m.mem_gb_training = 32.0;
    m.slo_ms = 120.0;
    m.infer_t0_ms = 38.0;
    m.batch_exp = 0.68;
    m.sat_base = 0.36;
    m.sat_exp = 0.3;
    m.post_sat_slope = 0.05;
    m.max_batch = 8;
    m.train_iter_ms = 820.0;
    m.train_sat = 0.92;
    m.train_comm_ms = 205.0;
    m.train_batch = 8;
    m.samples_per_unit = 512.0;
    m.throughput_unit = "tokens/s";
    catalog.push_back(m);
  }
  return catalog;
}

const std::vector<ModelProfile>& Catalog()
{
  static const std::vector<ModelProfile>* catalog =
      new std::vector<ModelProfile>(BuildCatalog());
  return *catalog;
}

}  // namespace

const ModelProfile&
GetModel(const std::string& name)
{
  for (const ModelProfile& m : Catalog()) {
    if (m.name == name) return m;
  }
  Fatal("unknown model: " + name);
}

bool
HasModel(std::string_view name)
{
  for (const ModelProfile& m : Catalog()) {
    if (m.name == name) return true;
  }
  return false;
}

const std::vector<ModelProfile>&
AllModels()
{
  return Catalog();
}

}  // namespace dilu::models
