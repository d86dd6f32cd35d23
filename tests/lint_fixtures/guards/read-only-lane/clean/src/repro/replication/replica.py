"""read-only-lane clean: the application defines the lane's execution
and shares the ordered probe; it never calls the lane itself."""


class PEATSReplica:
    def execute_read_only(self, request):
        if request.operation != "rdp":
            return None
        return self._execute_once(request).as_payload()

    def execute(self, request):
        return self._execute_once(request).as_payload()
