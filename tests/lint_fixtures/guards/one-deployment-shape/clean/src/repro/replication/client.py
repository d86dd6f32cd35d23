"""one-deployment-shape clean: the client is defined here and checked by
type, never built."""


class PEATSClient:
    def owns(self, handler):
        return isinstance(getattr(handler, "__self__", None), PEATSClient)
