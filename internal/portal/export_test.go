package portal

// MaxUploadBody is maxUploadBody, for the door's own tests.
const MaxUploadBody = maxUploadBody
