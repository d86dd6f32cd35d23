"""no-polling-waits clean: outside the guarded trees a sleep is allowed."""

import time


def pace(seconds):
    time.sleep(seconds)
