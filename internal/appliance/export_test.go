package appliance

// GuardServices is guardServices, for the door's own tests.
var GuardServices = guardServices
