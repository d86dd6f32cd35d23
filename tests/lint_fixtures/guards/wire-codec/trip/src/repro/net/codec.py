"""wire-codec trip: the frame names what gets instantiated."""

import importlib
import pickle


def decode(data):
    return pickle.loads(data)


def decode_class(name):
    return importlib.import_module(name)
