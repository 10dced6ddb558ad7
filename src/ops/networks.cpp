#include "ops/networks.h"

#include "support/math_util.h"

namespace heron::ops {

int64_t
Network::total_flops() const
{
    int64_t total = 0;
    for (const auto &layer : layers)
        total += checked_mul(layer.workload.flops(), layer.count);
    return total;
}

Network
resnet50(int batch, ir::DataType dtype)
{
    int64_t n = batch;
    Network net;
    net.name = "ResNet-50";
    auto add = [&](Workload w, int count) {
        net.layers.push_back(NetworkLayer{std::move(w), count});
    };
    // Stem.
    add(c2d(n, 3, 224, 224, 64, 7, 7, 2, 3, dtype), 1);
    // Stage 1 (56x56) bottlenecks.
    add(c2d(n, 64, 56, 56, 64, 1, 1, 1, 0, dtype), 3);
    add(c2d(n, 64, 56, 56, 64, 3, 3, 1, 1, dtype), 3);
    add(c2d(n, 64, 56, 56, 256, 1, 1, 1, 0, dtype), 4);
    add(c2d(n, 256, 56, 56, 64, 1, 1, 1, 0, dtype), 2);
    // Stage 2 (28x28).
    add(c2d(n, 256, 56, 56, 128, 1, 1, 2, 0, dtype), 1);
    add(c2d(n, 128, 28, 28, 128, 3, 3, 1, 1, dtype), 4);
    add(c2d(n, 128, 28, 28, 512, 1, 1, 1, 0, dtype), 4);
    add(c2d(n, 512, 28, 28, 128, 1, 1, 1, 0, dtype), 3);
    add(c2d(n, 256, 56, 56, 512, 1, 1, 2, 0, dtype), 1);
    // Stage 3 (14x14).
    add(c2d(n, 512, 28, 28, 256, 1, 1, 2, 0, dtype), 1);
    add(c2d(n, 256, 14, 14, 256, 3, 3, 1, 1, dtype), 6);
    add(c2d(n, 256, 14, 14, 1024, 1, 1, 1, 0, dtype), 6);
    add(c2d(n, 1024, 14, 14, 256, 1, 1, 1, 0, dtype), 5);
    add(c2d(n, 512, 28, 28, 1024, 1, 1, 2, 0, dtype), 1);
    // Stage 4 (7x7).
    add(c2d(n, 1024, 14, 14, 512, 1, 1, 2, 0, dtype), 1);
    add(c2d(n, 512, 7, 7, 512, 3, 3, 1, 1, dtype), 3);
    add(c2d(n, 512, 7, 7, 2048, 1, 1, 1, 0, dtype), 3);
    add(c2d(n, 2048, 7, 7, 512, 1, 1, 1, 0, dtype), 2);
    add(c2d(n, 1024, 14, 14, 2048, 1, 1, 2, 0, dtype), 1);
    // Classifier.
    add(gemm(n, 1000, 2048, dtype), 1);
    return net;
}

Network
inception_v3(int batch, ir::DataType dtype)
{
    int64_t n = batch;
    Network net;
    net.name = "Inception-V3";
    auto add = [&](Workload w, int count) {
        net.layers.push_back(NetworkLayer{std::move(w), count});
    };
    add(c2d(n, 3, 299, 299, 32, 3, 3, 2, 0, dtype), 1);
    add(c2d(n, 32, 149, 149, 32, 3, 3, 1, 0, dtype), 1);
    add(c2d(n, 32, 147, 147, 64, 3, 3, 1, 1, dtype), 1);
    add(c2d(n, 64, 73, 73, 80, 1, 1, 1, 0, dtype), 1);
    add(c2d(n, 80, 73, 73, 192, 3, 3, 1, 0, dtype), 1);
    // Mixed 35x35 blocks (many 1x1 and 3x3/5x5 branches).
    add(c2d(n, 192, 35, 35, 64, 1, 1, 1, 0, dtype), 4);
    add(c2d(n, 64, 35, 35, 96, 3, 3, 1, 1, dtype), 6);
    add(c2d(n, 48, 35, 35, 64, 5, 5, 1, 2, dtype), 3);
    // Mixed 17x17 blocks (1x7 and 7x1 factorized convs, modeled as
    // their 1D equivalents over the flattened free spatial dim).
    add(c2d(n, 768, 17, 17, 192, 1, 1, 1, 0, dtype), 10);
    add(c1d(n, 128, 17 * 17, 128, 7, 1, 3, dtype), 8);
    add(c1d(n, 192, 17 * 17, 192, 7, 1, 3, dtype), 10);
    // Mixed 8x8 blocks.
    add(c2d(n, 1280, 8, 8, 320, 1, 1, 1, 0, dtype), 2);
    add(c2d(n, 448, 8, 8, 384, 3, 3, 1, 1, dtype), 2);
    add(c2d(n, 2048, 8, 8, 192, 1, 1, 1, 0, dtype), 1);
    add(gemm(n, 1000, 2048, dtype), 1);
    return net;
}

Network
vgg16(int batch, ir::DataType dtype)
{
    int64_t n = batch;
    Network net;
    net.name = "VGG-16";
    auto add = [&](Workload w, int count) {
        net.layers.push_back(NetworkLayer{std::move(w), count});
    };
    add(c2d(n, 3, 224, 224, 64, 3, 3, 1, 1, dtype), 1);
    add(c2d(n, 64, 224, 224, 64, 3, 3, 1, 1, dtype), 1);
    add(c2d(n, 64, 112, 112, 128, 3, 3, 1, 1, dtype), 1);
    add(c2d(n, 128, 112, 112, 128, 3, 3, 1, 1, dtype), 1);
    add(c2d(n, 128, 56, 56, 256, 3, 3, 1, 1, dtype), 1);
    add(c2d(n, 256, 56, 56, 256, 3, 3, 1, 1, dtype), 2);
    add(c2d(n, 256, 28, 28, 512, 3, 3, 1, 1, dtype), 1);
    add(c2d(n, 512, 28, 28, 512, 3, 3, 1, 1, dtype), 2);
    add(c2d(n, 512, 14, 14, 512, 3, 3, 1, 1, dtype), 3);
    add(gemm(n, 4096, 25088, dtype), 1);
    add(gemm(n, 4096, 4096, dtype), 1);
    add(gemm(n, 1000, 4096, dtype), 1);
    return net;
}

Network
bert(int batch, int seq_len, ir::DataType dtype)
{
    int64_t tokens = static_cast<int64_t>(batch) * seq_len;
    int64_t heads = 12;
    int64_t hidden = 768;
    int64_t head_dim = hidden / heads;
    Network net;
    net.name = "BERT";
    auto add = [&](Workload w, int count) {
        net.layers.push_back(NetworkLayer{std::move(w), count});
    };
    // Per layer: QKV projections (3), attention output (1),
    // FFN up + down; 12 layers.
    add(gemm(tokens, hidden, hidden, dtype), 12 * 4);
    add(gemm(tokens, 4 * hidden, hidden, dtype), 12);
    add(gemm(tokens, hidden, 4 * hidden, dtype), 12);
    // Attention score and context batched matmuls.
    add(bmm(batch * heads, seq_len, seq_len, head_dim, dtype), 12);
    add(bmm(batch * heads, seq_len, head_dim, seq_len, dtype), 12);
    return net;
}

std::vector<Network>
all_networks(int batch)
{
    return {resnet50(batch), inception_v3(batch), vgg16(batch),
            bert(batch)};
}

} // namespace heron::ops
