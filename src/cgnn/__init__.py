"""Chained-graph neural network traffic classifier.

Pipeline: parse pcap captures, split them into bidirectional 5-tuple
sessions, clean each packet, build one chained graph per session, and
classify graphs with stacked simplified graph convolutions, pooling,
and a softmax head. Training is implemented from scratch with exact
hand-derived gradients, Adam, and early stopping. The command line is
`cgnn.cli`; each stage lives in its own module.
"""

from .dataset import parse_dataset
from .model import ModelDims, init_model, load_checkpoint, save_checkpoint

__all__ = ["ModelDims", "init_model", "load_checkpoint", "parse_dataset",
           "save_checkpoint"]
