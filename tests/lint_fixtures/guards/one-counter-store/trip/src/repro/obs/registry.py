"""one-counter-store trip: a second, null registry implementation."""


class NullRegistry:
    def counter(self, name, help_text=""):
        return self
