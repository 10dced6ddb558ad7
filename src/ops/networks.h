/**
 * @file
 * Network benchmark definitions (paper §6.2): ResNet-50,
 * Inception-V3, VGG-16, and BERT at batch size 16, expressed as the
 * distinct tunable layers plus per-layer occurrence counts. Network
 * latency = sum(occurrences * tuned layer latency), matching how
 * operator tuners evaluate whole networks.
 */
#ifndef HERON_OPS_NETWORKS_H
#define HERON_OPS_NETWORKS_H

#include <string>
#include <vector>

#include "ops/op_library.h"

namespace heron::ops {

/** One distinct layer with its occurrence count in the network. */
struct NetworkLayer {
    Workload workload;
    int count = 1;
};

/** A network benchmark: a weighted list of distinct layers. */
struct Network {
    std::string name;
    std::vector<NetworkLayer> layers;

    /** Total operation count across all layer instances. */
    int64_t total_flops() const;
};

/** ResNet-50, batch 16 (distinct conv layers + classifier), in @p dtype. */
Network resnet50(int batch = 16,
                 ir::DataType dtype = ir::DataType::kFloat16);

/**
 * Inception-V3, batch 16 (representative distinct convolutions), in
 * @p dtype.
 */
Network inception_v3(int batch = 16,
                     ir::DataType dtype = ir::DataType::kFloat16);

/** VGG-16, batch 16 (all 3x3 convolutions + FC layers), in @p dtype. */
Network vgg16(int batch = 16,
              ir::DataType dtype = ir::DataType::kFloat16);

/** BERT-base, batch 16, sequence length 128, in @p dtype. */
Network bert(int batch = 16, int seq_len = 128,
             ir::DataType dtype = ir::DataType::kFloat16);

/** All four evaluated networks. */
std::vector<Network> all_networks(int batch = 16);

} // namespace heron::ops

#endif // HERON_OPS_NETWORKS_H
