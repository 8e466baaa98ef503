"""mac: a desk-scale Mamba-2 style audio captioner.

Library layout:

- ``mac.tensor``      dense tensors + reverse-mode autodiff
- ``mac.optim``       gradient clipping and AdamW update steps
- ``mac.ssd``         selective state-space kernels (recurrent and chunked;
                      convolutional is one chunk)
- ``mac.blocks``      Mamba-2 style blocks, LoRA adapters, the language model
- ``mac.audio``       WAV reader, mel front-end, CNN patch encoder
- ``mac.synth``       synthetic captioned-audio corpus generator
- ``mac.connector``   grid-to-embedding connectors (3 layouts + separators)
- ``mac.vocab``       word-level tokenizer with reserved special tokens
- ``mac.pipeline``    sequence building, training, greedy decoding, evaluation
- ``mac.checkpoint``  manifest+payload tensor container
- ``mac.config``      validated key=value configuration
- ``mac.diagnostics`` eRank / cosine / state-distance / scaling analyses
- ``mac.cli``         the ``mac`` command-line tool

Submodules are imported lazily so the CLI can pin thread counts before
numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "tensor",
    "optim",
    "ssd",
    "blocks",
    "audio",
    "synth",
    "connector",
    "pipeline",
    "checkpoint",
    "config",
    "diagnostics",
    "vocab",
    "cli",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
