// Autonomous-driving scenario (the paper's lead motivation): a fixed,
// safety-critical mission → the policy selects the task-specific
// configuration; the detector runs on the accelerator within a real-time
// budget.
//
//   * mission defined from free-form text (LLM-oracle → knowledge graph),
//   * task-specific student distilled for it,
//   * detections visualised on sample scenes,
//   * deployment feasibility checked on the systolic-array simulator.
#include <cstdio>

#include "accel/gpu_model.h"
#include "accel/systolic.h"
#include "core/itask.h"
#include "detect/ascii.h"

using namespace itask;

int main() {
  std::printf("== iTask: autonomous-driving hazard detection ==\n\n");

  core::FrameworkOptions options;
  // Example-sized budgets (the benches use the full ones).
  options.corpus_size = 512;
  options.teacher_training.epochs = 20;
  options.distillation.epochs = 20;
  options.seed = 7;
  core::Framework fw(options);

  std::printf("[1] pretraining the perception teacher…\n");
  fw.pretrain_teacher();

  // Missions arrive as natural language; the library spec doubles as ground
  // truth for the evaluation below.
  const data::TaskSpec& spec = data::task_by_id(0);  // driving_hazards
  std::printf("[2] mission: \"%s\"\n", spec.description.c_str());
  core::TaskHandle task = fw.define_task(spec);
  std::printf("    knowledge graph: %lld nodes, %lld edges; "
              "compiled threshold %.2f\n",
              static_cast<long long>(task.graph.node_count()),
              static_cast<long long>(task.graph.edge_count()),
              task.compiled.threshold);

  // The situation: one known safety-critical task → task-specific config.
  core::SituationProfile situation;
  situation.expected_task_count = 1;
  situation.tasks_known_ahead = true;
  situation.accuracy_critical = true;
  const auto decision = fw.choose_configuration(situation);
  std::printf("[3] policy: %s\n    rationale: %s\n",
              core::config_kind_name(decision.config),
              decision.rationale.c_str());

  std::printf("[4] distilling the task-specific student…\n");
  fw.prepare_task_specific(task);

  // Drive a few frames through the detector and show what it sees.
  Rng rng(2468);
  data::GeneratorOptions road = options.generator;
  road.class_pool = std::vector<data::ObjectClass>{
      data::ObjectClass::kCar, data::ObjectClass::kPedestrian,
      data::ObjectClass::kTrafficCone, data::ObjectClass::kAnimal,
      data::ObjectClass::kCrack, data::ObjectClass::kBolt,
      data::ObjectClass::kBottle};
  const data::SceneGenerator generator(road);
  for (int frame = 0; frame < 3; ++frame) {
    const data::Scene scene = generator.generate(rng);
    const auto detections =
        fw.detect(scene.image, task, core::ConfigKind::kTaskSpecific);
    std::printf("\nframe %d — %zu hazard(s) flagged\n", frame,
                detections.size());
    std::printf("%s", detect::render_ascii(scene, detections).c_str());
    for (const auto& d : detections)
      std::printf("  -> %s\n", detect::describe(d).c_str());
  }

  // Interpretability: which cells ground the most confident detection?
  {
    const data::Scene scene = generator.generate(rng);
    Shape batched = scene.image.shape();
    batched.insert(batched.begin(), 1);
    vit::VitModel& student = fw.student_for(task);
    (void)student.forward(scene.image.reshape(batched));
    const Tensor rollout = student.attention_rollout();  // [1, T+1, T+1]
    std::printf("\nattention rollout (token 0 = CLS; cells 1..9 = grid):\n");
    for (int64_t cell = 0; cell < 9; ++cell) {
      std::printf("  cell %lld draws on:", static_cast<long long>(cell));
      for (int64_t src = 1; src < 10; ++src) {
        const float v = rollout.at({0, cell + 1, src});
        if (v > 0.12f)
          std::printf(" cell%lld(%.2f)", static_cast<long long>(src - 1), v);
      }
      std::printf("\n");
    }
  }

  // Quantitative check on a held-out road set.
  const data::Dataset eval = data::Dataset::generate(generator, 64, rng);
  const auto result =
      fw.evaluate(eval, task, core::ConfigKind::kTaskSpecific);
  std::printf("\n[5] held-out evaluation: F1 %.3f (P %.3f / R %.3f, AP %.3f)\n",
              result.f1, result.precision, result.recall,
              result.average_precision);

  // Real-time feasibility on the accelerator.
  const auto workload =
      vit::build_workload(options.student_config, 1, "driving_student");
  const accel::SystolicArray array;
  const accel::GpuModel gpu;
  const auto acc_report = array.run(workload, 30.0);
  const auto gpu_report = gpu.run(workload, 30.0);
  const auto cmp = accel::compare(gpu_report, acc_report);
  std::printf("\n[6] deployment: %.1f us/frame on the accelerator "
              "(%.0f FPS capable) vs %.1f us on the GPU — %.2fx speedup, "
              "%.0f%% less energy per frame\n",
              acc_report.total_micros, acc_report.fps_capability,
              gpu_report.total_micros, cmp.speedup,
              100.0 * (1.0 - cmp.frame_energy_ratio));
  return 0;
}
