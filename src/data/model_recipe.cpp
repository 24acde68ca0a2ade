#include "data/model_recipe.h"

#include "common/error.h"

namespace radar::data {

ModelRecipe model_recipe(const std::string& id) {
  ModelRecipe r;
  if (id == "resnet20") {
    r.spec = nn::ResNetSpec::resnet20(10);
    r.data_spec = synthetic_cifar_spec();
    r.data_spec.noise = 0.55;  // keep the task non-trivial (~95% ceiling)
    r.n_train = 4096;
    r.n_test = 1024;
  } else if (id == "resnet18") {
    // Paper architecture at reduced width, CPU-trainable (nn/resnet.h).
    r.spec = nn::ResNetSpec::resnet18(20, 16);
    r.data_spec = synthetic_imagenet_spec();
    r.data_spec.noise = 0.6;
    r.n_train = 4096;
    r.n_test = 1024;
  } else if (id == "tiny") {
    // Test/demo-scale model: trains in seconds.
    r.spec.num_classes = 4;
    r.spec.base_width = 8;
    r.spec.blocks_per_stage = {1, 1};
    r.spec.name = "tiny";
    r.data_spec = synthetic_cifar_spec();
    r.data_spec.image_size = 16;
    r.data_spec.num_classes = 4;
    r.n_train = 512;
    r.n_test = 256;
  } else {
    throw InvalidArgument("unknown model id: " + id);
  }
  return r;
}

}  // namespace radar::data
