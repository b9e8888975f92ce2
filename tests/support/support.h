#pragma once
// Umbrella header for the bkc test-support library. Test suites include
// this instead of re-declaring their own fixtures; see the individual
// headers for what lives where:
//
//   support/bnn_reference.h - allocating packing and binary-conv
//                       forms, the oracles of the packing/conv suites
//   support/configs.h - tiny/mid ReActNet config + EngineOptions
//                       factories shared by the model-level suites
//   support/forward.h - forward_into of a layer, block or model into
//                       a fresh tensor
//   support/golden.h  - golden-file comparison utilities
//   support/int8_reference.h - the pre-rewrite int8 stem/classifier
//                       loops, the oracle of the int8 head suite
//   support/kernels.h - seeded kernel/tensor/stream factories shared by
//                       the codec and hwsim suites
//   support/streams.h - bit-stream round-trip helpers

#include "support/bnn_reference.h"
#include "support/configs.h"
#include "support/forward.h"
#include "support/golden.h"
#include "support/int8_reference.h"
#include "support/kernels.h"
#include "support/streams.h"
