// Drifted deployment builder: the knob exists, but the one constructor
// silently deploys a flat fabric and `build_controlled` bypasses it —
// exactly the drift D6 must catch.
impl DeploymentBuilder {
    pub fn chiplets(mut self, cw: usize, ch: usize) -> Self {
        self.chiplets = Some((cw, ch));
        self
    }

    fn erased_fabric(&self) -> Result<Box<dyn Fabric>, DeployError> {
        self.flat()
    }

    pub fn build(self) -> Result<Deployment, DeployError> {
        let fabric = self.erased_fabric()?;
        self.finish(fabric)
    }

    pub fn build_controlled(self) -> Result<Deployment, DeployError> {
        let controller = FabricController::new(self.flat()?);
        self.finish(controller)
    }
}
