"""no-polling-waits trip: a TCP helper polls outside transport.py."""

import time


def wait_for(condition):
    while not condition():
        time.sleep(0.005)
