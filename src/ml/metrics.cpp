#include "ml/metrics.hpp"

#include <algorithm>
#include <numeric>

namespace pml::ml {

double accuracy(std::span<const int> truth, std::span<const int> predicted) {
  if (truth.size() != predicted.size() || truth.empty()) {
    throw MlError("accuracy: size mismatch or empty input");
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    hits += truth[i] == predicted[i] ? 1u : 0u;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

std::vector<std::vector<std::size_t>> confusion_matrix(
    std::span<const int> truth, std::span<const int> predicted,
    int num_classes) {
  if (truth.size() != predicted.size()) {
    throw MlError("confusion_matrix: size mismatch");
  }
  std::vector<std::vector<std::size_t>> counts(
      static_cast<std::size_t>(num_classes),
      std::vector<std::size_t>(static_cast<std::size_t>(num_classes), 0));
  for (std::size_t i = 0; i < truth.size(); ++i) {
    counts.at(static_cast<std::size_t>(truth[i]))
        .at(static_cast<std::size_t>(predicted[i]))++;
  }
  return counts;
}

double binary_auc(std::span<const double> scores,
                  std::span<const char> is_positive) {
  if (scores.size() != is_positive.size() || scores.empty()) {
    throw MlError("binary_auc: size mismatch or empty input");
  }
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });

  // Average ranks over ties, then the Mann-Whitney U statistic.
  std::vector<double> rank(scores.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() &&
           scores[order[j + 1]] == scores[order[i]]) {
      ++j;
    }
    const double avg_rank = 0.5 * (static_cast<double>(i) +
                                   static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = avg_rank;
    i = j + 1;
  }

  double pos_rank_sum = 0.0;
  std::size_t n_pos = 0;
  for (std::size_t k = 0; k < scores.size(); ++k) {
    if (is_positive[k]) {
      pos_rank_sum += rank[k];
      ++n_pos;
    }
  }
  const std::size_t n_neg = scores.size() - n_pos;
  if (n_pos == 0 || n_neg == 0) {
    throw MlError("binary_auc: needs both classes present");
  }
  const double u = pos_rank_sum -
                   static_cast<double>(n_pos) *
                       (static_cast<double>(n_pos) + 1.0) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

namespace {

/// Shared macro-OvR core over any row accessor (Matrix row or vector row).
template <typename RowAt>
double macro_ovr_auc_impl(std::size_t n_rows, RowAt row_at,
                          std::span<const int> truth, int num_classes) {
  if (n_rows != truth.size() || n_rows == 0) {
    throw MlError("macro_ovr_auc: size mismatch or empty input");
  }
  double total = 0.0;
  int classes_scored = 0;
  std::vector<double> scores(truth.size());
  std::vector<char> positive(truth.size());
  for (int c = 0; c < num_classes; ++c) {
    std::size_t n_pos = 0;
    for (std::size_t r = 0; r < truth.size(); ++r) {
      scores[r] = row_at(r)[static_cast<std::size_t>(c)];
      positive[r] = truth[r] == c ? 1 : 0;
      n_pos += positive[r] ? 1u : 0u;
    }
    if (n_pos == 0 || n_pos == truth.size()) continue;  // class absent
    total += binary_auc(scores, positive);
    ++classes_scored;
  }
  if (classes_scored == 0) {
    throw MlError("macro_ovr_auc: no class has both positives and negatives");
  }
  return total / classes_scored;
}

}  // namespace

double macro_ovr_auc(const Matrix& proba, std::span<const int> truth,
                     int num_classes) {
  return macro_ovr_auc_impl(
      proba.rows(), [&](std::size_t r) { return proba.row(r); }, truth,
      num_classes);
}

double macro_ovr_auc(const std::vector<std::vector<double>>& proba,
                     std::span<const int> truth, int num_classes) {
  return macro_ovr_auc_impl(
      proba.size(), [&](std::size_t r) { return std::span(proba[r]); }, truth,
      num_classes);
}

std::vector<int> predict_all(const Classifier& model, const Dataset& data) {
  // One predict_batch call (forest: the FlatForest block descent), then an
  // argmax pass over the shared probability matrix — nothing per row.
  Matrix proba;
  predict_proba_all(model, data, proba);
  std::vector<int> out;
  out.reserve(proba.rows());
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    const auto p = proba.row(r);
    out.push_back(
        static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin()));
  }
  return out;
}

void predict_proba_all(const Classifier& model, const Dataset& data,
                       Matrix& out) {
  out.resize(data.x.rows(), static_cast<std::size_t>(model.num_classes()));
  model.predict_batch(data.x, out);
}

Matrix predict_proba_all(const Classifier& model, const Dataset& data) {
  Matrix out;
  predict_proba_all(model, data, out);
  return out;
}

double evaluate_accuracy(const Classifier& model, const Dataset& data) {
  return accuracy(data.y, predict_all(model, data));
}

double evaluate_auc(const Classifier& model, const Dataset& data) {
  return macro_ovr_auc(predict_proba_all(model, data), data.y,
                       data.num_classes);
}

}  // namespace pml::ml
