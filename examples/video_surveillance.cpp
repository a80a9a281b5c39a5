// Video-surveillance scenario (§I, §VI-E): a chunked, content-correlated
// stream (camera segments) processed two ways —
//   1. the explore–exploit policy of §I, which fully labels the first frames
//      of each segment and then runs only the models that paid off;
//   2. a DRL agent whose face-detector priority θ is boosted (Eq. 3), so the
//      security-critical "face" label arrives within a tight deadline.
// Both run through LabelingService sessions; part 1 submits the segmented
// stream as one SubmitBatch of chunk-tagged frames.
//
//   ./build/examples/video_surveillance

#include <cstdio>
#include <memory>
#include <vector>

#include "core/labeling_service.h"
#include "data/dataset.h"
#include "data/dataset_profile.h"
#include "data/oracle.h"
#include "rl/trainer.h"
#include "util/stats.h"
#include "zoo/model_zoo.h"

using namespace ams;

int main() {
  // Part 1 — correlated segments: explore-exploit needs no learning at all.
  {
    const zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
    const data::Dataset stream_data = data::Dataset::GenerateChunked(
        data::DatasetProfile::MirFlickr25(), zoo.labels(), /*num_chunks=*/12,
        /*chunk_len=*/25, /*seed=*/21);
    const data::Oracle oracle(&zoo, &stream_data);

    // Frames arrive chunk by chunk, each tagged with its chunk; the service
    // keeps a chunk's frames on one worker, in order, so the policy's
    // segment knowledge builds up exactly as it would online.
    std::vector<core::WorkItem> frames;
    frames.reserve(static_cast<size_t>(stream_data.size()));
    for (int i = 0; i < stream_data.size(); ++i) {
      frames.push_back(
          core::WorkItem::Stored(i, stream_data.item(i).chunk_id));
    }
    const auto run_stream = [&](const std::string& policy,
                                util::RunningStat* time_stat,
                                util::RunningStat* recall_stat) {
      sched::PolicyOptions options;
      options.seed = 5;
      options.explore_items = 2;
      core::LabelingService service =
          core::LabelingServiceBuilder(&zoo)
              .WithOracle(&oracle)
              .WithMode(core::ExecutionMode::kSerial)
              .WithPolicy(policy, options)
              .WithRecallTarget(1.0)
              .WithWorkers(1)  // numbers must not vary with the core count
              .Build();
      for (const core::LabelOutcome& outcome : service.SubmitBatch(frames)) {
        time_stat->Add(outcome.schedule.makespan_s);
        if (recall_stat != nullptr) recall_stat->Add(outcome.recall);
      }
    };

    util::RunningStat explore_time, random_time, explore_recall;
    run_stream("explore_exploit", &explore_time, &explore_recall);
    run_stream("random", &random_time, nullptr);
    std::printf(
        "segmented stream (%d segments x 25 frames):\n"
        "  explore-exploit: %.2f s/frame at %.1f%% recall\n"
        "  random:          %.2f s/frame\n"
        "  -> correlated content needs no DRL: explore the segment head, "
        "exploit the rest (SI)\n\n",
        stream_data.num_chunks(), explore_time.mean(),
        100.0 * explore_recall.mean(), random_time.mean());
  }

  // Part 2 — priority scheduling: boost the face detector's theta so faces
  // are labeled first under a tight deadline (SVI-E's practical utility).
  {
    zoo::ModelZoo zoo = zoo::ModelZoo::CreateDefault();
    const int face_model = zoo.ModelsForTask(zoo::TaskKind::kFaceDetection)[1];
    zoo.SetTheta(face_model, 10.0);
    const data::Dataset dataset = data::Dataset::Generate(
        data::DatasetProfile::Stanford40(), zoo.labels(), 800, /*seed=*/8);
    const data::Oracle oracle(&zoo, &dataset);

    rl::TrainConfig config;
    config.scheme = rl::DrlScheme::kDuelingDqn;
    config.hidden_dim = 64;
    config.episodes = 600;
    config.eps_decay_steps = 3000;
    std::printf("training the theta-boosted surveillance agent...\n");
    std::unique_ptr<rl::Agent> agent =
        rl::AgentTrainer(&oracle, config).Train();

    // Algorithm-1 session: respond within half a second.
    core::ScheduleConstraints constraints;
    constraints.time_budget_s = 0.5;
    core::LabelingService service =
        core::LabelingServiceBuilder(&zoo)
            .WithOracle(&oracle)
            .WithMode(core::ExecutionMode::kSerial)
            .WithPredictor(agent.get())
            .WithConstraints(constraints)
            .Build();

    const int face_label = zoo.labels().LabelId(zoo::TaskKind::kFaceDetection, 0);
    int frames = 0, face_frames = 0, face_found = 0;
    util::RunningStat face_position;
    for (int i = 0; i < 200; ++i) {
      const int item = dataset.test_indices()[static_cast<size_t>(i)];
      ++frames;
      // Ground truth: does any model emit the face label valuably?
      if (oracle.LabelProfit(item, face_label) <= 0.0) continue;
      ++face_frames;
      const core::LabelOutcome outcome =
          service.Submit(core::WorkItem::Stored(item));
      const auto& executions = outcome.schedule.executions;
      for (size_t k = 0; k < executions.size(); ++k) {
        if (executions[k].model_id == face_model) {
          face_position.Add(static_cast<double>(k + 1));
        }
      }
      // Face recalled within the 0.5 s budget?
      bool recalled = false;
      for (const auto& record : executions) {
        for (const zoo::LabelOutput out :
             oracle.Output(item, record.model_id)) {
          if (out.label_id == face_label) recalled = true;
        }
      }
      if (recalled) ++face_found;
    }
    std::printf(
        "theta=10 face priority, 0.5 s deadline over %d frames:\n"
        "  frames with a detectable face: %d; face recalled in-budget: %d "
        "(%.1f%%)\n"
        "  boosted face detector runs at avg position %.1f of the schedule\n",
        frames, face_frames, face_found,
        face_frames > 0 ? 100.0 * face_found / face_frames : 0.0,
        face_position.count() > 0 ? face_position.mean() : -1.0);
  }
  return 0;
}
