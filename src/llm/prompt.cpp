#include "lcda/llm/prompt.h"

#include <charconv>
#include <stdexcept>

namespace lcda::llm {

std::string ChatRequest::full_text() const {
  std::size_t size = 0;
  for (const auto& m : messages) size += m.content.size() + 1;
  std::string out;
  out.reserve(size);
  for (const auto& m : messages) {
    out += m.content;
    out += '\n';
  }
  return out;
}

std::string_view objective_name(Objective o) {
  switch (o) {
    case Objective::kEnergy: return "energy";
    case Objective::kLatency: return "latency";
  }
  return "?";
}

Objective objective_from_name(std::string_view name) {
  if (name == "energy") return Objective::kEnergy;
  if (name == "latency") return Objective::kLatency;
  throw std::invalid_argument("objective_from_name: unknown objective \"" +
                              std::string(name) + "\"");
}

PromptBuilder::PromptBuilder(search::SearchSpace space, Options opts)
    : space_(std::move(space)), opts_(opts) {}

std::string PromptBuilder::example_rollout() const {
  // Progressive widening from 32, doubling every two layers, all 3x3 —
  // snapped onto the space so the example only shows legal values (an LLM
  // imitates its example; an 8-layer space must not show a 6-pair one).
  search::Design example;
  for (int i = 0; i < space_.conv_layers(); ++i) {
    example.rollout.push_back({32 << (i / 2), 3});
  }
  return space_.snap(example).rollout_text();
}

std::string PromptBuilder::hardware_text(const cim::HardwareConfig& hw) {
  std::string out = "[";
  out += cim::device_name(hw.device);
  for (const int v : {hw.bits_per_cell, hw.adc_bits, hw.xbar_size, hw.col_mux}) {
    out += ',';
    out += std::to_string(v);
  }
  out += ']';
  return out;
}

std::string PromptBuilder::history_line(const HistoryEntry& entry) {
  // chars_format::general at precision 6 is printf's %g, which is what
  // streaming a double with default flags prints.
  char perf[32];
  const auto end = std::to_chars(perf, perf + sizeof perf, entry.performance,
                                 std::chars_format::general, 6).ptr;
  std::string line = "rollout=";
  line += entry.design.rollout_text();
  line += " hardware=";
  line += hardware_text(entry.design.hw);
  line += " performance=";
  line.append(perf, end);
  return line;
}

void PromptBuilder::render_static_text() {
  const std::string layers = std::to_string(space_.conv_layers());

  // prompt_s of Algorithm 1.
  system_ = opts_.codesign_context
                ? "You are an expert in the field of neural architecture search."
                : "You are a helpful assistant.";

  // prompt_u of Algorithm 1, up to the history.
  if (opts_.codesign_context) {
    task_ =
        "Your task is to assist me in selecting the best rollout numbers for a "
        "given model architecture. The model will be trained and tested on "
        "CIFAR10, and your objective will be to maximize the model's "
        "performance on CIFAR10.\n"
        "The model architecture will be defined as the following.\n" +
        space_.model_text() +
        "\n"
        "For the 'rollout' variable to design the model, the available number "
        "for each index would be: " +
        space_.choices_text() +
        "\n"
        "Your objective is to define the optimal number of rollouts for each "
        "layer based on the given options above to maximize the model's "
        "performance on CIFAR10.\n"
        "The model's performance is a combination of hardware performance and "
        "model accuracy. The hardware metric for this study is " +
        (opts_.objective == Objective::kEnergy
             ? "the energy consumption during inference on a compute-in-memory "
               "DNN accelerator"
             : "the inference latency on a compute-in-memory DNN accelerator") +
        ". If the hardware is invalid (e.g., too large in area), the "
        "performance I give you will be -1. After you give me a rollout list, "
        "I will give you the model's performance I calculated.\n"
        "Your response should be the rollout list consisting of " +
        layers + " number pairs (e.g. " + example_rollout() +
        ") followed on the next line by the hardware configuration "
        "hardware=[device,bits_per_cell,adc_bits,xbar_size,col_mux] "
        "(e.g. hardware=[RRAM,2,6,128,8]).\n";
  } else {
    // LCDA-naive: same decision problem with all domain context removed.
    task_ = "I am running a black-box optimization. Select one list of " +
            layers +
            " number pairs and one list of settings to maximize a score I "
            "will compute.\n"
            "The available numbers for each pair are: " +
            space_.choices_text() +
            "\n"
            "If the settings are invalid the score will be -1. After you give "
            "me a list, I will tell you the score.\n"
            "Your response should be the list of " +
            layers + " number pairs (e.g. " + example_rollout() +
            ") followed on the next line by hardware=[device,bits_per_cell,"
            "adc_bits,xbar_size,col_mux] (e.g. hardware=[RRAM,2,6,128,8]).\n";
  }

  closing_ =
      "Please suggest a rollout list that can improve the model's performance "
      "beyond the experimental results provided above. Please do not include "
      "anything else other than the rollout list and the hardware "
      "configuration in your response.";
}

void PromptBuilder::add(const HistoryEntry& entry) {
  any_history_ = true;
  if (opts_.max_history == 0) return;
  if (window_.size() < opts_.max_history) {
    window_.push_back(history_line(entry));
  } else {
    window_[oldest_] = history_line(entry);
    oldest_ = (oldest_ + 1) % window_.size();
  }
}

ChatRequest PromptBuilder::build() {
  static constexpr std::string_view kHistoryIntro =
      "Here are some experimental results that you can use as a reference:\n";
  if (system_.empty()) render_static_text();

  std::size_t size = task_.size() + closing_.size();
  if (any_history_) size += kHistoryIntro.size();
  for (const std::string& line : window_) size += line.size() + 1;
  std::string user;
  user.reserve(size);
  user += task_;
  if (any_history_) {
    user += kHistoryIntro;
    for (std::size_t i = 0; i < window_.size(); ++i) {
      user += window_[(oldest_ + i) % window_.size()];
      user += '\n';
    }
  }
  user += closing_;

  ChatRequest req;
  req.messages.push_back({ChatMessage::Role::kSystem, system_});
  req.messages.push_back({ChatMessage::Role::kUser, std::move(user)});
  return req;
}

}  // namespace lcda::llm
