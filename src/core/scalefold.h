// ScaleFold-CPP public umbrella header.
//
// Pulls in the full public API: tensor substrate, kernels, data pipeline,
// autograd, mini-AlphaFold model, training stack (with whole-step capture
// and memory planning), cluster simulator, and the ScaleFold
// training-session orchestration.
#pragma once

#include "core/session.h"       // IWYU pragma: export
#include "data/loader.h"        // IWYU pragma: export
#include "data/protein_sample.h"  // IWYU pragma: export
#include "model/alphafold.h"    // IWYU pragma: export
#include "model/metrics.h"      // IWYU pragma: export
#include "sim/cluster.h"        // IWYU pragma: export
#include "sim/ttt.h"            // IWYU pragma: export
#include "train/evaluator.h"    // IWYU pragma: export
#include "train/trainer.h"      // IWYU pragma: export
