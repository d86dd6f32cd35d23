"""wire-codec clean: pickle.loads() and marshal rebuild whatever the
bytes name, so frames decode against MESSAGE_CLASSES only."""

MESSAGE_CLASSES = {}


def decode(tag, fields):
    return MESSAGE_CLASSES[tag](*fields)
