// Umbrella header: everything a downstream application needs.
//
//   #include "dhnsw.h"
//
//   dhnsw::Dataset ds = dhnsw::MakeSiftLike(100000, 1000);
//   auto engine = dhnsw::DhnswEngine::Build(ds.base,
//                                           dhnsw::DhnswConfig::Defaults());
//   auto result = engine.value().SearchAll(ds.queries, 10, 48);
//
// Individual module headers remain includable for finer-grained use.
#pragma once

#include "common/status.h"        // Status, Result<T>
#include "common/topk.h"          // Scored, TopKHeap
#include "core/compactor.h"       // Compactor, CompactionStats
#include "core/compute_node.h"    // ComputeNode, ComputeOptions, BatchResult
#include "core/compute_pool.h"    // ComputePool, SearchSharded, ShardedResult
#include "core/engine.h"          // DhnswEngine, DhnswConfig
#include "core/memory_node.h"     // MemoryNode, MemoryNodeHandle
#include "core/meta_hnsw.h"       // MetaHnsw
#include "core/snapshot.h"        // SaveRegionSnapshot, LoadRegionSnapshot
#include "dataset/dataset.h"      // VectorSet, Dataset
#include "dataset/ground_truth.h" // ComputeGroundTruth, recall
#include "dataset/synthetic.h"    // MakeSiftLike, MakeGistLike, MakeSynthetic
#include "dataset/vecs_io.h"      // ReadFvecs / WriteFvecs / ...
#include "dataset/workload.h"     // QueryStream
#include "index/distance.h"       // Metric, kernels
#include "index/flat_index.h"     // FlatIndex (exact baseline)
#include "index/hnsw.h"           // HnswIndex
#include "rdma/fabric.h"          // simulated fabric
#include "rdma/queue_pair.h"      // one-sided verbs endpoint
