// Model recipes: the network topology and synthetic dataset behind each
// model id ("tiny", "resnet20", "resnet18").
//
// One table shared by the layers that need to agree on what a model id
// means: the experiment workspace trains and evaluates on it, and package
// signing calibrates the int8 engine on the first test images of the
// dataset a network's spec names. Training knobs are not part of a
// recipe; they stay with the experiment workspace.
#pragma once

#include <cstdint>
#include <string>

#include "data/synthetic.h"
#include "nn/resnet.h"

namespace radar::data {

struct ModelRecipe {
  nn::ResNetSpec spec;  ///< spec.name is the model id
  SyntheticSpec data_spec;
  std::int64_t n_train = 0, n_test = 0;

  /// The recipe's dataset (renders no pixels until first read).
  SyntheticDataset dataset() const {
    return SyntheticDataset(data_spec, n_train, n_test);
  }
};

/// Recipe of `id`; throws InvalidArgument for an unknown id.
ModelRecipe model_recipe(const std::string& id);

}  // namespace radar::data
